package features

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func sampleVector() Vector {
	return Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        100,
		LossRate:       0.19,
		Semantics:      SemanticsAtLeastOnce,
		BatchSize:      2,
		PollInterval:   90 * time.Millisecond,
		MessageTimeout: 1500 * time.Millisecond,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	v := sampleVector()
	enc := v.Encode()
	if len(enc) != Dim {
		t.Fatalf("encode dim = %d, want %d", len(enc), Dim)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Errorf("round trip: got %+v, want %+v", got, v)
	}
	if _, err := Decode(enc[:3]); err == nil {
		t.Error("short decode accepted")
	}
}

func TestNamesMatchDim(t *testing.T) {
	if len(Names()) != Dim {
		t.Errorf("Names() has %d entries, Dim = %d", len(Names()), Dim)
	}
}

func TestValidate(t *testing.T) {
	if err := sampleVector().Validate(); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	bad := []Vector{
		{},
		func() Vector { v := sampleVector(); v.MessageSize = 0; return v }(),
		func() Vector { v := sampleVector(); v.LossRate = 1.5; return v }(),
		func() Vector { v := sampleVector(); v.Semantics = 9; return v }(),
		func() Vector { v := sampleVector(); v.BatchSize = 0; return v }(),
		func() Vector { v := sampleVector(); v.MessageTimeout = 0; return v }(),
		func() Vector { v := sampleVector(); v.PollInterval = -1; return v }(),
		func() Vector { v := sampleVector(); v.DelayMs = -2; return v }(),
		func() Vector { v := sampleVector(); v.Timeliness = -1; return v }(),
		func() Vector { v := sampleVector(); v.LossRate = math.NaN(); return v }(),
		func() Vector { v := sampleVector(); v.DelayMs = math.Inf(1); return v }(),
		func() Vector { v := sampleVector(); v.DelayMs = math.NaN(); return v }(),
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad vector %d accepted: %+v", i, v)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := Dataset{
		{X: sampleVector(), Pl: 0.63, Pd: 0.01},
		{X: func() Vector { v := sampleVector(); v.MessageSize = 1000; return v }(), Pl: 0.004, Pd: 0},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d samples", len(got))
	}
	for i := range ds {
		if got[i].X != ds[i].X || got[i].Pl != ds[i].Pl || got[i].Pd != ds[i].Pd {
			t.Errorf("sample %d: got %+v, want %+v", i, got[i], ds[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty csv accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1,2\n")); err == nil {
		t.Error("wrong column count accepted")
	}
	var buf bytes.Buffer
	ds := Dataset{{X: sampleVector(), Pl: 0.1, Pd: 0}}
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	corrupted := bytes.Replace(buf.Bytes(), []byte("0.19"), []byte("junk"), 1)
	if _, err := ReadCSV(bytes.NewBuffer(corrupted)); err == nil {
		t.Error("non-numeric cell accepted")
	}
}

func TestSplit(t *testing.T) {
	ds := make(Dataset, 100)
	for i := range ds {
		v := sampleVector()
		v.MessageSize = i + 1
		ds[i] = Sample{X: v}
	}
	train, test, err := ds.Split(0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(test) != 20 || len(train) != 80 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	// No overlap, full coverage.
	seen := map[int]bool{}
	for _, s := range append(append(Dataset{}, train...), test...) {
		if seen[s.X.MessageSize] {
			t.Fatalf("duplicate sample %d across split", s.X.MessageSize)
		}
		seen[s.X.MessageSize] = true
	}
	if len(seen) != 100 {
		t.Errorf("coverage %d/100", len(seen))
	}
	// Deterministic.
	train2, _, err := ds.Split(0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range train {
		if train[i].X != train2[i].X {
			t.Fatal("split not deterministic")
		}
	}
	if _, _, err := ds.Split(1.5, 1); err == nil {
		t.Error("bad fraction accepted")
	}
}

func TestNormalizer(t *testing.T) {
	x := [][]float64{
		{0, 10, 5},
		{10, 10, 15},
		{5, 10, 25},
	}
	n, err := FitNormalizer(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.Apply([]float64{5, 10, 15})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0, 0.5} // middle column is constant → 0
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("dim %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Clamping.
	got, err = n.Apply([]float64{-100, 0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[2] != 1 {
		t.Errorf("clamped = %v", got)
	}
	if _, err := n.Apply([]float64{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := FitNormalizer(nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := FitNormalizer([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestNormalizerApplyAll(t *testing.T) {
	x := [][]float64{{0}, {10}}
	n, err := FitNormalizer(x)
	if err != nil {
		t.Fatal(err)
	}
	all, err := n.ApplyAll(x)
	if err != nil {
		t.Fatal(err)
	}
	if all[0][0] != 0 || all[1][0] != 1 {
		t.Errorf("ApplyAll = %v", all)
	}
}

// Property: normalized values always lie in [0, 1].
func TestPropertyNormalizerRange(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		if len(raw) < 2 {
			return true
		}
		// Real feature values are small; magnitudes where max-min itself
		// overflows float64 are out of scope.
		for _, v := range raw {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true
			}
		}
		if math.IsNaN(probe) || math.Abs(probe) > 1e100 {
			return true
		}
		x := make([][]float64, 0, len(raw))
		for _, v := range raw {
			x = append(x, []float64{v})
		}
		n, err := FitNormalizer(x)
		if err != nil {
			return false
		}
		got, err := n.Apply([]float64{probe})
		if err != nil {
			return false
		}
		return got[0] >= 0 && got[0] <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
