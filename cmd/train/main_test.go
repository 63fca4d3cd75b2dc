package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"kafkarel/internal/core"
	"kafkarel/internal/features"
)

func writeDataset(t *testing.T) string {
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
	path := filepath.Join(t.TempDir(), "ds.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := features.WriteCSV(f, ds); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -data accepted")
	}
	if err := run([]string{"-data", "/does/not/exist.csv"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunTrainsAndSaves(t *testing.T) {
	data := writeDataset(t)
	out := filepath.Join(t.TempDir(), "model.json")
	if err := run([]string{"-data", data, "-o", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := core.Load(f); err != nil {
		t.Fatalf("saved model unreadable: %v", err)
	}
}
