package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kafkarel/internal/core"
	"kafkarel/internal/features"
	"kafkarel/internal/figures"
	"kafkarel/internal/sweep"
)

func TestRunValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-grid", "normal"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"-n", "0"}); err == nil {
		t.Error("zero message count accepted")
	}
}

func readCSV(t *testing.T, path string) features.Dataset {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := features.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRunSmallSweepToFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.csv")
	if err := run(context.Background(), []string{"-n", "200", "-progress", "0", "-o", out}); err != nil {
		t.Fatal(err)
	}
	ds := readCSV(t, out)
	grid := append(sweep.NormalGrid(), sweep.AbnormalGrid()...)
	if len(ds) != len(grid) {
		t.Fatalf("%d rows for the %d-point Fig. 3 grid", len(ds), len(grid))
	}
	for i := range grid {
		if ds[i].X != grid[i] {
			t.Fatalf("row %d is %+v, grid point %+v", i, ds[i].X, grid[i])
		}
	}
}

// TestCollectThenTrainIsAnnAccuracy holds cmd/collect to the dataset
// `repro ann-accuracy` trains on: training on the CSV with the same seed
// gives the same metrics, held-out split included.
func TestCollectThenTrainIsAnnAccuracy(t *testing.T) {
	const n, seed = 200, 3
	out := filepath.Join(t.TempDir(), "ds.csv")
	if err := run(context.Background(), []string{"-n", "200", "-seed", "3", "-progress", "0", "-o", out}); err != nil {
		t.Fatal(err)
	}
	_, got, err := core.Train(readCSV(t, out), seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := figures.Accuracy(figures.Options{Messages: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Metrics) {
		t.Errorf("collect+train metrics differ from ann-accuracy's:\n got MAE %v %+v\nwant MAE %v %+v",
			got.MAE, got.PerSemantics, want.Metrics.MAE, want.Metrics.PerSemantics)
	}
}

// TestRunParallelMatchesSequential asserts the CSV bytes are identical
// for workers=1 and workers=8 — the execution layer must not be able to
// perturb a published dataset.
func TestRunParallelMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	var outs [][]byte
	for _, parallel := range []string{"1", "8"} {
		out := filepath.Join(dir, "ds"+parallel+".csv")
		err := run(context.Background(), []string{
			"-n", "150", "-seed", "9", "-parallel", parallel, "-progress", "0", "-o", out,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, b)
	}
	if string(outs[0]) != string(outs[1]) {
		t.Errorf("CSV differs between -parallel=1 and -parallel=8:\n%s\nvs\n%s", outs[0], outs[1])
	}
}
