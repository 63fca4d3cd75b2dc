package features

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSVWriter writes a dataset incrementally: the header row up front,
// then one row per sample as it arrives. Long sweeps stream their
// results through it instead of buffering the whole dataset.
type CSVWriter struct {
	cw  *csv.Writer
	row []string
	n   int
}

// NewCSVWriter writes the header row and returns the row writer.
func NewCSVWriter(w io.Writer) (*CSVWriter, error) {
	cw := csv.NewWriter(w)
	header := append(Names(), "pl", "pd")
	if err := cw.Write(header); err != nil {
		return nil, fmt.Errorf("features: write header: %w", err)
	}
	return &CSVWriter{cw: cw, row: make([]string, 0, Dim+2)}, nil
}

// Write appends one sample row.
func (w *CSVWriter) Write(s Sample) error {
	w.row = w.row[:0]
	for _, v := range s.X.Encode() {
		w.row = append(w.row, strconv.FormatFloat(v, 'g', -1, 64))
	}
	w.row = append(w.row,
		strconv.FormatFloat(s.Pl, 'g', -1, 64),
		strconv.FormatFloat(s.Pd, 'g', -1, 64))
	if err := w.cw.Write(w.row); err != nil {
		return fmt.Errorf("features: write row %d: %w", w.n, err)
	}
	w.n++
	return nil
}

// Flush flushes buffered rows to the underlying writer; call it once
// after the last Write (it is cheap to call more often, e.g. to make
// partial output durable during a long sweep).
func (w *CSVWriter) Flush() error {
	w.cw.Flush()
	if err := w.cw.Error(); err != nil {
		return fmt.Errorf("features: flush: %w", err)
	}
	return nil
}

// ReadCSV parses a dataset written by a CSVWriter.
func ReadCSV(r io.Reader) (Dataset, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("features: read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("features: empty csv")
	}
	if len(rows[0]) != Dim+2 {
		return nil, fmt.Errorf("features: header has %d columns, want %d", len(rows[0]), Dim+2)
	}
	out := make(Dataset, 0, len(rows)-1)
	for i, row := range rows[1:] {
		vals := make([]float64, 0, Dim+2)
		for c, cell := range row {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("features: row %d col %d: %w", i+1, c, err)
			}
			vals = append(vals, v)
		}
		vec, err := Decode(vals[:Dim])
		if err != nil {
			return nil, fmt.Errorf("features: row %d: %w", i+1, err)
		}
		out = append(out, Sample{X: vec, Pl: vals[Dim], Pd: vals[Dim+1]})
	}
	return out, nil
}
