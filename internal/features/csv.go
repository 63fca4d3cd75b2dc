package features

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes ds as CSV: a header row of the feature names plus pl
// and pd, then one row per sample with every value in its shortest
// round-trip form.
func WriteCSV(w io.Writer, ds Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append(Names(), "pl", "pd")); err != nil {
		return fmt.Errorf("features: write header: %w", err)
	}
	row := make([]string, 0, Dim+2)
	for i, s := range ds {
		row = row[:0]
		for _, v := range s.X.Encode() {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		row = append(row,
			strconv.FormatFloat(s.Pl, 'g', -1, 64),
			strconv.FormatFloat(s.Pd, 'g', -1, 64))
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("features: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("features: flush: %w", err)
	}
	return nil
}

// ReadCSV parses a dataset written by WriteCSV.
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
