package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"kafkarel/internal/obs"
)

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-semantics", "bogus"}); err == nil {
		t.Error("unknown semantics accepted")
	}
	if err := run(ctx, []string{"-n", "0"}); err == nil {
		t.Error("zero messages accepted")
	}
}

func TestRunSmallExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-n", "300", "-loss", "0.1", "-poll", "30ms"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunScaled(t *testing.T) {
	if err := run(context.Background(), []string{"-n", "300", "-producers", "2", "-parallel", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRejectsScaledRuns(t *testing.T) {
	err := run(context.Background(), []string{
		"-n", "100", "-producers", "2",
		"-trace", filepath.Join(t.TempDir(), "t.jsonl"),
	})
	if err == nil {
		t.Fatal("-trace with -producers 2 accepted")
	}
}

// Acceptance: a Fig. 8 at-least-once configuration traced with -trace
// must yield a JSONL event stream containing at least one complete
// duplicate chain — batch send, RTO-inflated request timeout, retry and
// duplicate append on the same broker.
func TestTraceCapturesDuplicateChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	err := run(context.Background(), []string{
		"-n", "2000", "-size", "200", "-delay", "100", "-loss", "0.15",
		"-batch", "2", "-timeout", "3s", "-semantics", "at-least-once",
		"-seed", "7", "-trace", path, "-metrics",
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []obs.Event
	for dec := json.NewDecoder(f); dec.More(); {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("parse trace: %v", err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("trace file is empty")
	}
	complete := 0
	for _, chain := range obs.DuplicateChains(events) {
		if obs.IsCompleteDuplicateChain(chain) {
			complete++
		}
	}
	if complete == 0 {
		t.Fatalf("no complete duplicate chain in %d events", len(events))
	}
	t.Logf("%d events, %d complete duplicate chains", len(events), complete)
}
