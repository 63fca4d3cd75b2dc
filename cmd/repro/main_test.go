package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"testing"

	"kafkarel/internal/core"
	"kafkarel/internal/features"
)

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{}); err == nil {
		t.Error("missing artefact accepted")
	}
	if err := run(ctx, []string{"nosuch"}); err == nil {
		t.Error("unknown artefact accepted")
	}
	if err := run(ctx, []string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunFig9(t *testing.T) {
	if err := run(context.Background(), []string{"-q", "fig9"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable1Small(t *testing.T) {
	if err := run(context.Background(), []string{"-q", "-n", "400", "table1"}); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	ferr := fn()
	w.Close()
	out := <-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// TestRunFig7ParallelByteIdentical is the acceptance check for the
// execution layer: for a fixed seed, `repro fig7 -parallel=8` must print
// byte-identical output to `-parallel=1`.
func TestRunFig7ParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction; skipped in -short")
	}
	outs := make([][]byte, 0, 2)
	for _, parallel := range []string{"1", "8"} {
		outs = append(outs, captureStdout(t, func() error {
			return run(context.Background(),
				[]string{"-q", "-n", "200", "-seed", "5", "-parallel", parallel, "fig7"})
		}))
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("fig7 output differs between -parallel=1 and -parallel=8:\n%s\nvs\n%s",
			outs[0], outs[1])
	}
}

// The accuracy table lists semantics in ascending order, so the same
// metrics print the same bytes every time (a map range would not).
func TestAccuracyTableOrderIsStable(t *testing.T) {
	m := core.Metrics{MAE: 0.02, RMSE: 0.03, PerSemantics: map[int]core.SemanticsMetrics{
		features.SemanticsExactlyOnce: {TrainSamples: 80, TestSamples: 20, MAE: 0.01, RMSE: 0.02},
		features.SemanticsAtLeastOnce: {TrainSamples: 40, TestSamples: 10, MAE: 0.03, RMSE: 0.04},
	}}
	first := captureStdout(t, func() error { return accuracyTable(m) })
	if i, j := bytes.Index(first, []byte("at-least-once")), bytes.Index(first, []byte("exactly-once")); i < 0 || j < i {
		t.Fatalf("rows not in ascending semantics order:\n%s", first)
	}
	for i := 0; i < 20; i++ {
		if again := captureStdout(t, func() error { return accuracyTable(m) }); !bytes.Equal(again, first) {
			t.Fatalf("render %d differs:\n%s\nwant:\n%s", i, again, first)
		}
	}
}
