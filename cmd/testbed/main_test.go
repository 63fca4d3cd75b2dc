package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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

// The Sec. IV-C scaling rule from the command line: one producer per
// topic, with -users-per-sec fixing the aggregate rate.
func TestRunFleetScaled(t *testing.T) {
	err := run(context.Background(), []string{
		"-n", "300", "-fleet", "2", "-topics", "2", "-partitions", "1",
		"-users-per-sec", "30", "-parallel", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Flags outside their mode fail with an error naming the flag: the
// fleet-only flags without -fleet, -trace on a fleet, and the deleted
// -producers (a fleet with -users-per-sec replaces it).
func TestRejectsFlagsOutsideTheirMode(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-topics", "2"}, "-topics"},
		{[]string{"-partitions", "4"}, "-partitions"},
		{[]string{"-consumers", "2"}, "-consumers"},
		{[]string{"-groups", "2"}, "-groups"},
		{[]string{"-cooperative"}, "-cooperative"},
		{[]string{"-consumer-faults"}, "-consumer-faults"},
		{[]string{"-users-per-sec", "30"}, "-users-per-sec"},
		{[]string{"-lag-timeline", "lag.csv"}, "-lag-timeline"},
		{[]string{"-parallel", "2"}, "-parallel"},
		{[]string{"-fleet", "0", "-partitions", "4"}, "-partitions"},
		{[]string{"-fleet", "2", "-topics", "2", "-trace", trace}, "-trace"},
		{[]string{"-producers", "2"}, "-producers"},
	}
	for _, tc := range cases {
		err := run(context.Background(), append([]string{"-n", "100"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one naming %s", tc.args, err, tc.want)
		}
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
