package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"kafkarel/internal/core"
	"kafkarel/internal/features"
)

func writeModel(t *testing.T) string {
	t.Helper()
	var ds features.Dataset
	for _, l := range []float64{0, 0.1, 0.2, 0.3} {
		for _, b := range []int{1, 2, 5} {
			ds = append(ds, features.Sample{
				X: features.Vector{
					MessageSize: 200, Timeliness: time.Second,
					LossRate: l, Semantics: features.SemanticsAtLeastOnce,
					BatchSize: b, MessageTimeout: time.Second,
				},
				Pl: l / float64(b),
			})
		}
	}
	pred, _, err := core.Train(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pred.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -model accepted")
	}
	if err := run([]string{"-model", writeModel(t), "-semantics", "bogus"}); err == nil {
		t.Error("unknown semantics accepted")
	}
	if err := run([]string{"-model", "/does/not/exist"}); err == nil {
		t.Error("missing model accepted")
	}
}

func TestRunPredicts(t *testing.T) {
	model := writeModel(t)
	if err := run([]string{"-model", model, "-loss", "0.2", "-batch", "2"}); err != nil {
		t.Fatal(err)
	}
	// Unmodelled semantics surfaces an error.
	if err := run([]string{"-model", model, "-semantics", "at-most-once"}); err == nil {
		t.Error("unmodelled semantics accepted")
	}
}
