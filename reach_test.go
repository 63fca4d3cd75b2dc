package kafkarel_test

// The reachability gate (DESIGN.md §6 "Reachability"): a declaration or
// an option stays only if something a user can run reaches it. This file
// is the policy — the roots, the allowlist, the self-test; the census
// that finds what is unreached is reach_census_test.go. `make reach`
// prints the census: run it after adding an exported name or a config
// field.

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// reachAllow maps a name the census flags to the written reason it
// stays. A key covers itself and everything declared under it (a
// package's declarations, a type's methods or fields) and nothing it
// calls: what only an allowed declaration reaches needs its own entry.
// An entry that covers no finding fails the gate as stale. "A test calls
// it" is not a reason.
var reachAllow = map[string]string{
	"internal/coordinator.TxnCoordinator.MaterializedState": "test oracle: replays the transaction log into the state a restarted coordinator would rebuild, to compare with the live one",
	"internal/coordinator.decodeTxnStateRecord":             "the decoder that oracle reads the log with, and the round-trip partner of the transaction-state encoder",
	"internal/testbed.Calibration":                          "the producer-host cost model, the one deployment-like setting; ROADMAP 1(c) recalibrates it",
	"internal/testbed.Experiment.Calibration":               "carries that Calibration into a run; ROADMAP 1(c) is about to set it",
	"internal/testbed.Fleet.Calibration":                    "carries that Calibration into a fleet; ROADMAP 1(c) is about to set it",
	"internal/testbed.Fleet.FaultPlan":                      "the only way to put broker faults into a fleet shard (testbed's pinned golden fleet does); ConsumerFaults rides its path",
	"internal/chaos.GenConfig.Semantics":                    "written by frozen bench/, read by nothing; delete with the next [benchmark] PR (ROADMAP 5(a))",
	"internal/testbed.TxnExperiment.Isolation":              "written by frozen bench/, read by nothing; delete with the next [benchmark] PR (ROADMAP 5(a))",
	"internal/dynconf.Options.Predictor":                    "lets a caller that holds a model skip the 270-point training sweep; without it tier-1 trains twelve times (measured 0.34 s -> 5.3 s)",
}

// TestReachability is the gate on this tree; -v prints the census.
func TestReachability(t *testing.T) {
	c, findings, stale, err := reachGate(".", reachAllow, "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s %s: delete it, make it a constant, or give reachAllow a reason", f.pos, f.kind, f.key)
	}
	for _, key := range stale {
		t.Errorf("reachAllow[%q] covers nothing the census flags: remove the entry", key)
	}
	var lines []string
	total := 0
	for name, n := range c.options {
		lines, total = append(lines, fmt.Sprintf("options  %3d  %s", n, name)), total+n
	}
	for key, why := range reachAllow {
		lines = append(lines, fmt.Sprintf("allowed  %s: %s", key, why))
	}
	sort.Strings(lines)
	t.Logf("%d exported config fields in %d structs, %d allowlist entries\n%s", total, len(c.options), len(reachAllow), strings.Join(lines, "\n"))
}

// TestReachabilityFixture points the gate at testdata/reachfixture: it
// must report exactly the four planted defects, and so neither the
// method reached only through an interface value, nor the type used only
// as a field type, nor the build-tagged twin files.
func TestReachabilityFixture(t *testing.T) {
	allow := map[string]string{"internal/lib.Kept": "stays by a reason", "internal/lib.Gone": "covers nothing"}
	_, findings, stale, err := reachGate("testdata/reachfixture", allow)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.kind+" "+f.key)
	}
	want := []string{
		"option nobody sets internal/lib.Config.Unset",
		"option set and never read internal/lib.Config.WriteOnly",
		"unreachable func internal/lib.OnlyTested",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(stale) != "[internal/lib.Gone]" {
		t.Errorf("findings %q, stale %q\nwant     %q, stale [internal/lib.Gone]", got, stale, want)
	}
}
