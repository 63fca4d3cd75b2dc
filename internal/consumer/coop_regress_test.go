package consumer

import (
	"slices"
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// TestGroupEagerRejoinFlushPinsRedelivery pins the commit-on-revocation
// bugfix: when an eager member heads back to the join barrier it must
// flush its dirty positions FIRST, so generation N's progress is
// durable before generation N+1 resumes from the committed watermarks.
// With a healthy cluster the flush always lands, so a mid-stream
// rebalance must produce zero redelivery. If the pre-rejoin flush is
// ever dropped, the new generation resumes from stale watermarks and
// this count goes positive.
func TestGroupEagerRejoinFlushPinsRedelivery(t *testing.T) {
	// Ten full poll rounds per partition: the second member joins while
	// the first is still mid-stream.
	const partitions, perPart = 4, 10 * pollMax
	r := newGroupRig(t, partitions, perPart)
	g, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{
		Topic: "t", Auto: true, Dedup: true, CaptureEvidence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.SetDrainCheck(func() bool { return true })
	if err := g.Join("c0"); err != nil {
		t.Fatal(err)
	}
	r.sim.Schedule(25*time.Millisecond, func() {
		if err := g.Join("c1"); err != nil {
			t.Errorf("join: %v", err)
		}
	})
	r.pump(t, 2*time.Second)
	if g.started == 0 || g.active != 0 {
		t.Fatalf("group not done; states: c0=%s c1=%s", g.members["c0"].state.String(), g.members["c1"].state.String())
	}
	ev := g.Evidence()
	if !ev.Drained {
		t.Fatal("group did not drain cleanly")
	}
	if ev.Rebalances < 3 {
		t.Fatalf("assignments applied = %d, want >= 3 (the rebalance never happened)", ev.Rebalances)
	}
	if ev.Redelivered != 0 {
		t.Fatalf("eager rebalance with healthy commits redelivered %d records, want 0 — generation N progress was not durable before generation N+1 resumed", ev.Redelivered)
	}
	rep := ReconcileRangesKeys(sourceRanges(partitions, perPart), g.ConsumedKeys())
	if rep.NLost != 0 || rep.NDuplicated != 0 {
		t.Fatalf("reconcile: lost=%d dup=%d", rep.NLost, rep.NDuplicated)
	}
}

// TestGroupLagProbeFencedToLiveOwnership pins the probe-fencing bugfix:
// Lag, LagByPartition and FencedLag must charge backlog only to
// partitions owned in the current generation. A partition mid-handoff
// (its owner crashed, the rebalance not yet complete) has no member
// accountable for it; charging its backlog to the group double counts
// it the moment the new owner's first commit lands. Once the rebalance completes the
// partitions are owned again and their backlog reappears.
func TestGroupLagProbeFencedToLiveOwnership(t *testing.T) {
	const partitions, perPart = 4, 8
	r := newGroupRig(t, partitions, perPart)
	g, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{Topic: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"c0", "c1"} {
		if err := g.Join(name); err != nil {
			t.Fatal(err)
		}
	}
	r.pump(t, 50*time.Millisecond)
	// Drain and commit c0's half so its true lag is zero; c1's half
	// keeps its full backlog uncommitted.
	for drained := 0; drained < 2*perPart; {
		recs, err := g.Poll("c0", 64)
		if err != nil {
			t.Fatal(err)
		}
		drained += len(recs)
		if err := g.Commit("c0"); err != nil {
			t.Fatal(err)
		}
		r.pump(t, 20*time.Millisecond)
	}
	if lag := totalLag(t, g); lag != 2*perPart {
		t.Fatalf("stable lag = %d, want %d", lag, 2*perPart)
	}

	// c1 crashes. Its partitions are ownerless until the session expiry
	// rebalance hands them to c0: the probes must fence them out.
	if err := g.Crash("c1"); err != nil {
		t.Fatal(err)
	}
	lags, err := g.LagByPartition()
	if err != nil {
		t.Fatal(err)
	}
	for p, l := range lags {
		if l != 0 {
			t.Fatalf("mid-handoff LagByPartition[%d] = %d, want 0 (fenced: c0 partitions drained, c1 partitions ownerless)", p, l)
		}
	}
	for p, l := range g.FencedLag() {
		if l != 0 {
			t.Fatalf("mid-handoff FencedLag()[%d] = %d, want 0", p, l)
		}
	}

	// Session expiry hands c1's partitions to c0; the backlog is again
	// a live member's responsibility and must reappear in full. Manual
	// mode: drive c0's heartbeats so it notices the rebalance and
	// rejoins (a tick while it is mid-rejoin does nothing).
	for i := 0; i < 16 && len(g.members["c0"].assigned) != partitions; i++ {
		g.members["c0"].heartbeatTick()
		r.pump(t, 50*time.Millisecond)
	}
	if got := len(g.members["c0"].assigned); got != partitions {
		t.Fatalf("c0 owns %d partitions after expiry rebalance, want %d", got, partitions)
	}
	if lag := totalLag(t, g); lag != 2*perPart {
		t.Fatalf("post-rebalance lag = %d, want %d — the inherited backlog vanished", lag, 2*perPart)
	}
}

// TestParkedCooperativeAssignmentDoesNotPollRevokedPartition pins the one
// place where the dense per-partition state deliberately departs from the
// maps it replaced. A cooperative assignment that revokes one partition
// and adds another revokes first, then needs the new partition's
// committed offset; with the offsets log leaderless it parks and retries,
// leaving the old partition list in place. The old map read the revoked
// partition's missing position as 0, so every poll round until the retry
// re-read the partition from the start — redelivering what the member had
// already consumed, from a partition it no longer owned, and dirtying a
// position it would then try to commit. A revoked partition is skipped.
func TestParkedCooperativeAssignmentDoesNotPollRevokedPartition(t *testing.T) {
	sim := des.New()
	clst, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := clst.CreateTopic("t", 3, 3); err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < 3; p++ {
		recs := make([]wire.Record, 20)
		for i := range recs {
			recs[i] = wire.Record{Key: uint64(p)*20 + uint64(i) + 1}
		}
		for b := int32(0); b < 3; b++ {
			clst.Broker(b).Log("t", p).Append(recs)
		}
	}
	// The offsets log lives on broker 0 alone; the data survives its loss.
	co, err := coordinator.New(sim, clst, coordinator.Config{OffsetsReplication: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroup(sim, co, clst, GroupConfig{Topic: "t", Cooperative: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Join("c0"); err != nil {
		t.Fatal(err)
	}
	pump := func(d time.Duration) {
		t.Helper()
		if err := sim.RunUntil(sim.Now() + d); err != nil {
			t.Fatal(err)
		}
	}
	pump(50 * time.Millisecond)
	m := g.members["c0"]
	m.applyAssignment([]int32{0, 1}) // hand partition 2 back
	if _, err := g.Poll("c0", 10); err != nil {
		t.Fatal(err)
	}
	if m.position[0] != 10 {
		t.Fatalf("position[0] = %d after a 10-record poll, want 10", m.position[0])
	}
	if err := g.Commit("c0"); err != nil {
		t.Fatal(err)
	}
	pump(50 * time.Millisecond)

	if err := clst.FailBroker(0); err != nil {
		t.Fatal(err)
	}
	m.applyAssignment([]int32{1, 2}) // revoke 0, acquire 2: parks on the offset fetch
	if m.pendingAssign == nil || m.position[0] != notOwned || !slices.Equal(m.assigned, []int32{0, 1}) {
		t.Fatalf("assignment not parked as expected: pending=%v position[0]=%d assigned=%v",
			m.pendingAssign, m.position[0], m.assigned)
	}
	before := g.Evidence()
	fetches := fetchRequests(clst)
	m.pollOnce(100, nil)
	m.commitDirty()
	after := g.Evidence()
	if got := fetchRequests(clst) - fetches; got != 1 {
		t.Errorf("parked member's poll counted %d fetches, want 1: partition 1 only, the revoked partition 0 is not visited", got)
	}
	if after.Redelivered != before.Redelivered {
		t.Errorf("parked member redelivered %d records from the partition it had revoked", after.Redelivered-before.Redelivered)
	}
	if m.position[0] != notOwned || m.ackedTo[0] != notOwned {
		t.Errorf("revoked partition regained state: position %d, ackedTo %d", m.position[0], m.ackedTo[0])
	}
	if g.deliveredNext[0] != 10 {
		t.Errorf("partition 0 delivered up to %d while revoked, want it left at 10", g.deliveredNext[0])
	}
	if m.position[1] != 20 {
		t.Errorf("retained partition 1 at %d, want it polled to its end (20)", m.position[1])
	}
	// The next round finds partition 1 idle and answers it without a fetch;
	// the revoked partition is skipped before that question is even asked
	// (its position, notOwned, is no offset to ask about).
	elided, fetches := g.elided, fetchRequests(clst)
	m.pollOnce(100, nil)
	if g.elided-elided != 1 || fetchRequests(clst)-fetches != 1 {
		t.Errorf("idle round while parked: %d visits elided, %d fetches counted, want 1 and 1 (partition 1 only)",
			g.elided-elided, fetchRequests(clst)-fetches)
	}
	if m.position[0] != notOwned {
		t.Errorf("revoked partition regained position %d on the idle round", m.position[0])
	}
}
