package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

// small returns a quick campaign config for determinism checks.
func small(mode string, workers int) Config {
	return Config{Mode: mode, Trials: 12, Seed: 7, Messages: 120, Workers: workers}
}

func TestConfigRejectsUnknownMode(t *testing.T) {
	if _, err := Run(context.Background(), Config{Mode: "bogus", Trials: 1}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestCampaignDeterministicAcrossWorkers is the replay guarantee: the
// rendered scorecard must be byte-identical at 1, 4 and 8 workers, for
// both modes.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	for _, mode := range []string{ModeExactlyOnce, ModeAtLeastOnce} {
		var ref []byte
		for _, workers := range []int{1, 4, 8} {
			sc, err := Run(context.Background(), small(mode, workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", mode, workers, err)
			}
			var buf bytes.Buffer
			if err := sc.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = buf.Bytes()
			} else if !bytes.Equal(ref, buf.Bytes()) {
				t.Errorf("%s: scorecard at workers=%d differs from workers=1", mode, workers)
			}
		}
	}
}

// TestRunTrialReplaysScorecardRow re-runs one flagged trial from its
// recorded seeds alone and requires the identical row back.
func TestRunTrialReplaysScorecardRow(t *testing.T) {
	cfg := small(ModeAtLeastOnce, 4)
	sc, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := sc.Rows[len(sc.Rows)/2]
	for _, r := range sc.Rows {
		if len(r.Classified) > 0 {
			row = r // prefer an eventful trial
			break
		}
	}
	replayed, err := RunTrial(cfg, row.PlanSeed, row.WorkloadSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, replayed) {
		t.Errorf("replayed row differs:\ncampaign: %+v\nreplay:   %+v", row, replayed)
	}
}

// TestExactlyOnceCampaignHoldsInvariants is the headline acceptance
// run: 200 generated fault plans mixing every fault kind against the
// idempotent acks=all producer on a replication-factor-3 topic, with
// zero invariant violations allowed.
func TestExactlyOnceCampaignHoldsInvariants(t *testing.T) {
	sc, err := Run(context.Background(), Config{Mode: ModeExactlyOnce, Trials: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sc.Rows {
		if !r.Pass {
			t.Errorf("trial (plan %d, workload %d) violated: %v (faults %v)",
				r.PlanSeed, r.WorkloadSeed, r.Violations, r.Faults)
		}
	}
	if sc.Failed != 0 {
		t.Fatalf("%d of %d exactly-once trials violated invariants", sc.Failed, sc.Trials)
	}
	assertAllKindsCovered(t, sc)
}

// TestAtLeastOnceCampaignClassifiesAckedLoss runs acks=1 on an
// unreplicated topic with unclean restarts: injected acked-data loss
// must be classified as expected Kafka behaviour, never reported as an
// invariant violation.
func TestAtLeastOnceCampaignClassifiesAckedLoss(t *testing.T) {
	sc, err := Run(context.Background(), Config{Mode: ModeAtLeastOnce, Trials: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Failed != 0 {
		for _, r := range sc.Rows {
			if !r.Pass {
				t.Errorf("trial (plan %d, workload %d): %v", r.PlanSeed, r.WorkloadSeed, r.Violations)
			}
		}
		t.Fatalf("%d of %d at-least-once trials misreported expected loss as violations", sc.Failed, sc.Trials)
	}
	if sc.AckedLost == 0 {
		t.Error("no trial lost acknowledged records; campaign never exercised the unclean-restart loss window")
	}
	var truncated uint64
	for _, r := range sc.Rows {
		truncated += r.Truncated
	}
	if truncated == 0 {
		t.Error("no unclean restart truncated any records across 200 trials")
	}
	assertAllKindsCovered(t, sc)
}

// TestExactlyOncePipelinedCampaign re-runs the exactly-once campaign at
// max-in-flight 5 (Kafka's default pipelining). This is the regression
// gate for a bug the checker caught: the broker's original high-water
// sequence dedup dropped — while acking — new batches that arrived out
// of order behind a retry, losing acknowledged records. The
// remembered-batch cache (wire.SeqCacheSize) fixed it; acked ⇒ appended
// must now hold at depth 5 under every fault mix.
func TestExactlyOncePipelinedCampaign(t *testing.T) {
	sc, err := Run(context.Background(), Config{
		Mode: ModeExactlyOnce, Trials: 60, Seed: 1337, maxInFlight: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sc.Rows {
		if !r.Pass {
			t.Errorf("trial (plan %d, workload %d) violated at max-in-flight 5: %v (faults %v)",
				r.PlanSeed, r.WorkloadSeed, r.Violations, r.Faults)
		}
	}
}

// TestExactlyOnceE2ECampaign is the end-to-end acceptance run: 60
// trials mixing broker faults (including unclean restarts) with
// consumer-member crash/restart rebalances, a two-member group
// committing through the rf=3 offsets log, and zero tolerance — no
// producer, broker, or end-to-end delivery invariant may fire under
// exactly-once.
func TestExactlyOnceE2ECampaign(t *testing.T) {
	sc, err := Run(context.Background(), Config{
		Mode: ModeExactlyOnce, Trials: 60, Seed: 20260806, E2E: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sc.Rows {
		if !r.Pass {
			t.Errorf("trial (plan %d, workload %d) violated: %v (faults %v)",
				r.PlanSeed, r.WorkloadSeed, r.Violations, r.Faults)
		}
	}
	if sc.Failed != 0 {
		t.Fatalf("%d of %d exactly-once e2e trials violated invariants", sc.Failed, sc.Trials)
	}
	if sc.OffsetRegressed != 0 {
		t.Fatalf("%d trials lost committed offsets despite the rf=3 offsets topic", sc.OffsetRegressed)
	}
	var crashes, rebalances, expirations uint64
	consumerFaults := 0
	for _, r := range sc.Rows {
		if !r.Drained {
			t.Errorf("trial (plan %d): group did not drain", r.PlanSeed)
		}
		rebalances += r.Rebalances
		expirations += r.Expirations
		for _, f := range r.Faults {
			if strings.HasPrefix(f, "consumer-crash ") {
				consumerFaults++
			}
		}
		_ = crashes
	}
	if consumerFaults == 0 {
		t.Error("no generated plan crashed a consumer member across 60 trials")
	}
	if rebalances == 0 || expirations == 0 {
		t.Errorf("rebalances=%d expirations=%d; campaign never exercised membership churn", rebalances, expirations)
	}
}

// TestAtLeastOnceE2EClassifiesOffsetRegression runs the group against
// an rf=1 offsets topic under unclean restarts: committed watermarks
// that the offsets log loses must be classified as the expected acks=1
// redelivery window, never reported as violations — and at least one
// trial must actually hit the window.
func TestAtLeastOnceE2EClassifiesOffsetRegression(t *testing.T) {
	sc, err := Run(context.Background(), Config{
		Mode: ModeAtLeastOnce, Trials: 60, Seed: 20260806, E2E: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Failed != 0 {
		for _, r := range sc.Rows {
			if !r.Pass {
				t.Errorf("trial (plan %d, workload %d): %v", r.PlanSeed, r.WorkloadSeed, r.Violations)
			}
		}
		t.Fatalf("%d of %d at-least-once e2e trials misreported expected anomalies", sc.Failed, sc.Trials)
	}
	if sc.OffsetRegressed == 0 {
		t.Error("no trial regressed a committed offset; the rf=1 offsets-loss window never opened")
	}
	found := false
	for _, r := range sc.Rows {
		for _, c := range r.Classified {
			if strings.Contains(c, "committed offsets regressed") {
				found = true
			}
		}
	}
	if !found {
		t.Error("offset regression never classified in any row")
	}
}

// assertAllKindsCovered requires the campaign's generated plans to have
// exercised every schedulable fault kind at least once.
func assertAllKindsCovered(t *testing.T, sc Scorecard) {
	t.Helper()
	kinds := []string{"broker-crash", "unclean-restart", "partition",
		"loss-burst", "delay-spike", "conn-reset", "broker-slow"}
	seen := make(map[string]bool)
	for _, r := range sc.Rows {
		for _, f := range r.Faults {
			for _, k := range kinds {
				if strings.HasPrefix(f, k+" ") {
					seen[k] = true
				}
			}
		}
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Errorf("fault kind %q never generated across %d trials", k, sc.Trials)
		}
	}
}

// TestTxnCampaignHoldsExactlyOnceInvariants pins the chaos-smoke txn
// row: 60 trials of the transactional consume-process-produce pipeline
// under broker crashes, unclean restarts, processor crashes and zombie
// races must complete with zero VerifyTxn violations and nothing
// flagged at read_committed — and the faults must actually bite
// (fenced zombie commits and incarnation churn observed).
func TestTxnCampaignHoldsExactlyOnceInvariants(t *testing.T) {
	sc, err := Run(context.Background(), Config{
		Mode: ModeTxn, Trials: 60, Seed: 20260806,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Failed != 0 || sc.Flagged != 0 {
		for _, r := range sc.Rows {
			if !r.Pass || len(r.Classified) > 0 {
				t.Errorf("trial (plan %d, workload %d): violations %v, classified %v (faults %v)",
					r.PlanSeed, r.WorkloadSeed, r.Violations, r.Classified, r.Faults)
			}
		}
		t.Fatalf("txn campaign: %d violated, %d flagged of %d trials", sc.Failed, sc.Flagged, sc.Trials)
	}
	fenced, committed, zombies := 0, uint64(0), 0
	for _, r := range sc.Rows {
		if !r.Completed {
			t.Errorf("trial (plan %d): pipeline did not complete", r.PlanSeed)
		}
		if r.Isolation != "read_committed" {
			t.Errorf("trial (plan %d): isolation %q, want read_committed", r.PlanSeed, r.Isolation)
		}
		fenced += r.FencedAttempts
		committed += r.TxnsCommitted
		for _, f := range r.Faults {
			if strings.HasPrefix(f, "processor-zombie ") {
				zombies++
			}
		}
	}
	if zombies == 0 {
		t.Error("no generated plan raced a zombie incarnation across 60 trials")
	}
	if fenced == 0 {
		t.Error("no attempt was ever fenced; zombie fencing never exercised")
	}
	if committed == 0 {
		t.Error("no transaction committed across the campaign")
	}
}

// TestTxnCampaignDeterministicAcrossWorkers extends the byte-identity
// guarantee to the transactional mode.
func TestTxnCampaignDeterministicAcrossWorkers(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4, 8} {
		sc, err := Run(context.Background(), small(ModeTxn, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := sc.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Errorf("txn scorecard at workers=%d differs from workers=1", workers)
		}
	}
}

// TestTxnCampaignReadUncommittedClassifiesResidue flips the consumer
// isolation: aborted transactions' records become visible, and every
// sighting must be classified as configuration-expected — never a
// violation.
func TestTxnCampaignReadUncommittedClassifiesResidue(t *testing.T) {
	sc, err := Run(context.Background(), Config{
		Mode: ModeTxn, Trials: 12, Seed: 20260806, Isolation: "read_uncommitted",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Failed != 0 {
		t.Fatalf("%d of %d read_uncommitted trials violated invariants", sc.Failed, sc.Trials)
	}
	residue := 0
	for _, r := range sc.Rows {
		if r.Isolation != "read_uncommitted" {
			t.Errorf("trial (plan %d): isolation %q", r.PlanSeed, r.Isolation)
		}
		for _, note := range r.Classified {
			if strings.Contains(note, "configuration-expected") {
				residue++
			}
		}
	}
	if residue == 0 {
		t.Error("no trial classified aborted residue; the deliberate-abort knob never produced any")
	}
}

// TestCoopCampaignDeterministicAcrossWorkers extends the replay
// guarantee to the cooperative-rebalance mode: the rendered scorecard —
// including the per-group rebalance/expiration rows and the paired
// eager-control columns — must be byte-identical at 1, 4 and 8 workers.
func TestCoopCampaignDeterministicAcrossWorkers(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4, 8} {
		sc, err := Run(context.Background(), Config{
			Mode: ModeCoop, Trials: 3, Seed: 11, Messages: 120, Workers: workers,
		})
		if err != nil {
			t.Fatalf("coop workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := sc.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Errorf("coop: scorecard at workers=%d differs from workers=1", workers)
		}
	}
}

// TestCoopCampaignHoldsInvariantsAndBeatsEager runs a short cooperative
// churn campaign and holds the PR's two claims at once: zero
// coordinator/delivery invariant violations under generated
// redelivery-storm plans, and the cooperative protocol never worse —
// in aggregate strictly better — than its paired eager control on both
// redelivered records and paused-partition time.
func TestCoopCampaignHoldsInvariantsAndBeatsEager(t *testing.T) {
	sc, err := Run(context.Background(), Config{Mode: ModeCoop, Trials: 8, Seed: 20260806})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Failed != 0 || sc.Flagged != 0 {
		for _, r := range sc.Rows {
			for _, v := range r.Violations {
				t.Errorf("plan %d: %s", r.PlanSeed, v)
			}
			for _, c := range r.Classified {
				t.Errorf("plan %d (classified): %s", r.PlanSeed, c)
			}
		}
		t.Fatalf("failed=%d flagged=%d, want 0/0", sc.Failed, sc.Flagged)
	}
	if sc.CoopRedelivered > sc.EagerRedelivered {
		t.Errorf("coop redelivered %d > eager %d", sc.CoopRedelivered, sc.EagerRedelivered)
	}
	if sc.CoopPausedNs >= sc.EagerPausedNs {
		t.Errorf("coop paused %d ns >= eager %d ns", sc.CoopPausedNs, sc.EagerPausedNs)
	}
	for _, r := range sc.Rows {
		if r.Redelivered > r.EagerRedelivered {
			t.Errorf("plan %d: coop redelivered %d > eager %d", r.PlanSeed, r.Redelivered, r.EagerRedelivered)
		}
		if len(r.GroupRebalances) != r.Groups || len(r.GroupExpirations) != r.Groups {
			t.Errorf("plan %d: group-tagged rows %d/%d, want %d per-group entries",
				r.PlanSeed, len(r.GroupRebalances), len(r.GroupExpirations), r.Groups)
		}
	}
}

// TestCoopPlansThatLostAnAckedCommit replays the three generated plans
// (one from the benchmark's seed 45798949, two from `-coop -trials 300
// -seed 101`) that used to fail with "committed offsets regressed despite
// offsets replication 3": a broker recovered while an acks=all offsets-log
// batch sat in a slowed leader's service time, never received the batch,
// and later led the partition without it (cluster.joinRecovered). They
// must pass with nothing flagged.
func TestCoopPlansThatLostAnAckedCommit(t *testing.T) {
	for _, seeds := range [][2]uint64{
		{2105870271889066440, 1815732687596387917},
		{6945454717920826184, 4383270858743804780},
		{13940118944754626741, 13434040110859652870},
	} {
		row, err := RunTrial(Config{Mode: ModeCoop}, seeds[0], seeds[1])
		if err != nil {
			t.Fatalf("plan %d: %v", seeds[0], err)
		}
		if !row.Pass || len(row.Violations) > 0 || len(row.Classified) > 0 {
			t.Errorf("plan %d: pass=%v violations=%v classified=%v", seeds[0], row.Pass, row.Violations, row.Classified)
		}
	}
}

// TestSmokeScorecardsPinned pins SHA-256 of Scorecard.WriteJSON for the
// three `make chaos-smoke` configurations (60 trials, seed 20260806):
// -e2e (both delivery modes, one scorecard each, hashed in order), txn
// and coop. It stands in for the generated scorecards that used to be
// committed at the repo root: a hash moves only when a trial's simulated
// behaviour or its verdict does, and the PR that means to move it re-pins
// it and says why.
func TestSmokeScorecardsPinned(t *testing.T) {
	smoke := Config{Trials: 60, Seed: 20260806}
	cases := []struct {
		name  string
		modes []string
		cfg   func(Config) Config
		want  string
	}{
		{"e2e", []string{ModeExactlyOnce, ModeAtLeastOnce},
			func(c Config) Config { c.E2E, c.ConsumerMembers = true, 2; return c },
			"8a1b313981b07447ebfa1b10a7f0f01c833ad7dde028c9e3c29a33435c63e64b"},
		{"txn", []string{ModeTxn}, func(c Config) Config { return c },
			"7ceb00fadba7f4c08cb64177014fc5e97881bdb9a5a6139db6be54066ad5c82d"},
		{"coop", []string{ModeCoop}, func(c Config) Config { return c },
			"d4c2ac5ef4ff9ccad57c6402d7408202cc466285fd5b3a82ea48f8ca57e652e6"},
	}
	for _, tc := range cases {
		h := sha256.New()
		for _, mode := range tc.modes {
			cfg := tc.cfg(smoke)
			cfg.Mode = mode
			sc, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, mode, err)
			}
			if sc.Failed != 0 {
				t.Errorf("%s %s: %d trials violated invariants", tc.name, mode, sc.Failed)
			}
			if err := sc.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s scorecard hash = %s, want %s", tc.name, got, tc.want)
		}
	}
}
