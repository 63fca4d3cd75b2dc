package consumer

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// totalLag sums LagByPartition: the records between the durable
// committed offsets and the partition high watermarks.
func totalLag(t *testing.T, g *Group) int64 {
	t.Helper()
	lags, err := g.LagByPartition()
	if err != nil {
		t.Fatal(err)
	}
	var lag int64
	for _, l := range lags {
		lag += l
	}
	return lag
}

// groupRig is a cluster with a seeded topic and a coordinator.
type groupRig struct {
	sim  *des.Simulator
	clst *cluster.Cluster
	co   *coordinator.Coordinator
}

// newGroupRig seeds topic "t" with `partitions` partitions and
// `perPart` records each (keys unique across the topic, 1-based,
// partition-major: partition p owns keys p*perPart+1..(p+1)*perPart).
func newGroupRig(t *testing.T, partitions int32, perPart int) *groupRig {
	t.Helper()
	sim := des.New()
	c, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("t", int(partitions), 1); err != nil {
		t.Fatal(err)
	}
	key := uint64(1)
	for p := int32(0); p < partitions; p++ {
		recs := make([]wire.Record, 0, perPart)
		for i := 0; i < perPart; i++ {
			recs = append(recs, wire.Record{Key: key})
			key++
		}
		c.Leader("t", p).Log("t", p).Append(recs)
	}
	co, err := coordinator.New(sim, c, coordinator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return &groupRig{sim: sim, clst: c, co: co}
}

func (r *groupRig) pump(t *testing.T, d time.Duration) {
	t.Helper()
	if err := r.sim.RunUntil(r.sim.Now() + d); err != nil {
		t.Fatal(err)
	}
}

func sourceRanges(partitions int32, perPart int) []KeyRange {
	ranges := make([]KeyRange, partitions)
	for p := range ranges {
		ranges[p] = KeyRange{Base: uint64(p * perPart), Count: uint64(perPart)}
	}
	return ranges
}

func TestGroupRangeAssignment(t *testing.T) {
	r := newGroupRig(t, 7, 1)
	g, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{Topic: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"c0", "c1", "c2"} {
		if err := g.Join(name); err != nil {
			t.Fatal(err)
		}
	}
	r.pump(t, 50*time.Millisecond)
	seen := make(map[int32]string)
	sizes := make([]int, 0, 3)
	for _, name := range []string{"c0", "c1", "c2"} {
		if got := g.members[name].state.String(); got != "stable" {
			t.Fatalf("member %s state = %s, want stable", name, got)
		}
		parts := g.members[name].assigned
		sizes = append(sizes, len(parts))
		for _, p := range parts {
			if prev, dup := seen[p]; dup {
				t.Fatalf("partition %d assigned to both %s and %s", p, prev, name)
			}
			seen[p] = name
		}
	}
	if len(seen) != 7 {
		t.Fatalf("assigned %d partitions, want 7", len(seen))
	}
	// Range assignor over 7/3: earlier members take the larger ranges.
	if sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 2 {
		t.Fatalf("assignment sizes = %v, want [3 2 2]", sizes)
	}
	if g.members["c0"].gen != g.members["c1"].gen {
		t.Fatalf("members disagree on generation: %d vs %d",
			g.members["c0"].gen, g.members["c1"].gen)
	}
}

func TestGroupPollAndCommit(t *testing.T) {
	r := newGroupRig(t, 2, 10)
	g, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{Topic: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Join("c0"); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 20*time.Millisecond)

	// Before anything is committed, Committed is an explicit error —
	// never a silent zero.
	if _, err := g.Committed(0); !errors.Is(err, ErrNoCommit) {
		t.Fatalf("Committed on fresh group: err = %v, want ErrNoCommit", err)
	}
	lag := totalLag(t, g)
	if lag != 20 {
		t.Fatalf("initial lag = %d, want 20", lag)
	}

	recs, err := g.Poll("c0", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("polled %d records, want 20", len(recs))
	}
	// Polled but uncommitted: the durable path still has nothing.
	if _, err := g.Committed(0); !errors.Is(err, ErrNoCommit) {
		t.Fatalf("Committed after poll, before commit: err = %v, want ErrNoCommit", err)
	}
	if err := g.Commit("c0"); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 50*time.Millisecond)
	if n := g.members["c0"].inFlight; n != 0 {
		t.Fatalf("commits still in flight after pump: %d", n)
	}
	for p := int32(0); p < 2; p++ {
		off, err := g.Committed(p)
		if err != nil {
			t.Fatalf("Committed(%d): %v", p, err)
		}
		if off != 10 {
			t.Fatalf("Committed(%d) = %d, want 10", p, off)
		}
	}
	lag = totalLag(t, g)
	if lag != 0 {
		t.Fatalf("lag after commit = %d, want 0", lag)
	}
	g.members["c0"].leave(true)
	if g.started == 0 || g.active != 0 {
		t.Fatal("group not done after last leave")
	}
}

// TestGroupCommittedSurvivesRejoin: offsets live in the coordinator's
// log, not in the group object — a fresh member resumes exactly at the
// committed watermark.
func TestGroupCommittedSurvivesRejoin(t *testing.T) {
	r := newGroupRig(t, 1, 10)
	g, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{Topic: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Join("c0"); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 20*time.Millisecond)
	if _, err := g.Poll("c0", 4); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit("c0"); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 50*time.Millisecond)
	g.members["c0"].leave(true)
	r.pump(t, 20*time.Millisecond)

	// A second group instance (same group id) resumes at offset 4.
	g2, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{Topic: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Join("c1"); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 20*time.Millisecond)
	recs, err := g2.Poll("c1", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("resumed poll got %d records, want 6", len(recs))
	}
	if recs[0].Key != 5 {
		t.Fatalf("resumed at key %d, want 5", recs[0].Key)
	}
}

// TestGroupSessionTimeoutMidPoll: a member that stops heartbeating
// mid-consumption is expired by the coordinator; the survivor takes
// over its partitions from the committed offsets and drains the topic
// with nothing lost and (under dedup) nothing double-delivered.
func TestGroupSessionTimeoutMidPoll(t *testing.T) {
	// Twelve full poll rounds per partition: the crash lands mid-stream.
	const partitions, perPart = 4, 12 * pollMax
	r := newGroupRig(t, partitions, perPart)
	g, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{
		Topic: "t", Auto: true, Dedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.SetDrainCheck(func() bool { return true })
	if err := g.Join("c0"); err != nil {
		t.Fatal(err)
	}
	if err := g.Join("c1"); err != nil {
		t.Fatal(err)
	}
	r.sim.Schedule(30*time.Millisecond, func() {
		if err := g.CrashMember(0); err != nil {
			t.Errorf("crash: %v", err)
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
	if ev.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", ev.Crashes)
	}
	if got := r.co.Stats().SessionExpirations; got < 1 {
		t.Fatalf("session expirations = %d, want >= 1", got)
	}
	rep := ReconcileRangesKeys(sourceRanges(partitions, perPart), g.ConsumedKeys())
	if rep.NLost != 0 || rep.NDuplicated != 0 || rep.Foreign != 0 {
		t.Fatalf("reconcile after takeover: lost=%d dup=%d foreign=%d",
			rep.NLost, rep.NDuplicated, rep.Foreign)
	}
}

// TestGroupStaleCommitFenced: a member evicted by a rebalance it never
// rejoined gets its late commit rejected by member/generation fencing —
// the durable watermark must not move.
func TestGroupStaleCommitFenced(t *testing.T) {
	r := newGroupRig(t, 2, 10)
	g, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{Topic: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Join("c0"); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 20*time.Millisecond)
	if _, err := g.Poll("c0", 100); err != nil {
		t.Fatal(err)
	}

	// A second member joins; c0 (manual, not heartbeating) never learns
	// about the rebalance and is evicted at the rebalance timeout.
	if err := g.Join("c1"); err != nil {
		t.Fatal(err)
	}
	r.pump(t, r.co.Config().SessionTimeout+50*time.Millisecond)
	if got := g.members["c1"].state.String(); got != "stable" {
		t.Fatalf("c1 state = %s, want stable", got)
	}
	// c0 is removed either by the rebalance-timeout eviction or by its
	// session expiring first — both end in the same fenced state.
	if st := r.co.Stats(); st.Evictions+st.SessionExpirations < 1 {
		t.Fatalf("evictions=%d expirations=%d, want >= 1 removal",
			st.Evictions, st.SessionExpirations)
	}

	// c0's stale commit is fenced and must not create a committed
	// offset.
	if err := g.Commit("c0"); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 50*time.Millisecond)
	ev := g.Evidence()
	if ev.FencedCommits < 1 {
		t.Fatalf("fenced commits = %d, want >= 1", ev.FencedCommits)
	}
	if _, err := g.Committed(0); !errors.Is(err, ErrNoCommit) {
		t.Fatalf("fenced commit became durable: Committed err = %v, want ErrNoCommit", err)
	}
	if hi := g.commitHi; hi[0] != 0 || hi[1] != 0 {
		t.Fatalf("fenced commit moved CommitHi: %v", hi)
	}
	if got := r.co.Stats().FencedCommits; got < 1 {
		t.Fatalf("coordinator fenced commits = %d, want >= 1", got)
	}
}

// TestGroupCooperativeReassignment: a member joining mid-consumption
// triggers a cooperative rebalance — the incumbent commits inside the
// revoke window, keeps its retained partitions' positions, and the
// recorded delivery offsets stay strictly increasing per partition
// (no gap, no replay) under dedup.
func TestGroupCooperativeReassignment(t *testing.T) {
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
	// One assignment for c0 alone, then one each after the rebalance.
	if ev.Rebalances < 3 {
		t.Fatalf("assignments applied = %d, want >= 3", ev.Rebalances)
	}
	// Per-partition delivery offsets strictly increasing: cooperative
	// handoff resumed exactly where the committed watermark stood.
	last := make([]int64, partitions)
	for p := range last {
		last[p] = -1
	}
	owners := make([]map[string]bool, partitions)
	for i := range owners {
		owners[i] = map[string]bool{}
	}
	for _, d := range ev.Deliveries {
		if d.Offset != last[d.Partition]+1 {
			t.Fatalf("partition %d: delivery offset %d after %d (want contiguous)",
				d.Partition, d.Offset, last[d.Partition])
		}
		last[d.Partition] = d.Offset
		owners[d.Partition][d.Member] = true
	}
	for p := range last {
		if last[p] != perPart-1 {
			t.Fatalf("partition %d drained to offset %d, want %d", p, last[p], perPart-1)
		}
	}
	// The rebalance actually moved partitions: some partition was
	// served by both members over its lifetime.
	shared := false
	for _, o := range owners {
		if len(o) > 1 {
			shared = true
		}
	}
	if !shared {
		t.Fatal("no partition changed hands across the rebalance")
	}
	rep := ReconcileRangesKeys(sourceRanges(partitions, perPart), g.ConsumedKeys())
	if rep.NLost != 0 || rep.NDuplicated != 0 {
		t.Fatalf("reconcile: lost=%d dup=%d", rep.NLost, rep.NDuplicated)
	}
}

func TestGroupValidation(t *testing.T) {
	r := newGroupRig(t, 2, 1)
	if _, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{Topic: "missing"}); err == nil {
		t.Fatal("NewGroup on missing topic succeeded")
	}
	if _, err := NewGroup(nil, r.co, r.clst, GroupConfig{Topic: "t"}); err == nil {
		t.Fatal("NewGroup with nil sim succeeded")
	}
	g, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{Topic: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Join("c0"); err != nil {
		t.Fatal(err)
	}
	if err := g.Join("c0"); err == nil {
		t.Fatal("duplicate join succeeded")
	}
	if _, err := g.Poll("ghost", 1); err == nil {
		t.Fatal("poll for unknown member succeeded")
	}
	if _, err := g.Poll("c0", 1); err == nil {
		t.Fatal("poll before rebalance completed succeeded")
	}
	r.pump(t, 20*time.Millisecond)
	if _, err := g.Poll("c0", 0); err == nil {
		t.Fatal("poll with max 0 succeeded")
	}
	if err := g.Restart("c0"); err == nil {
		t.Fatal("restart of live member succeeded")
	}
}

// TestEvidenceViewsStayApart: Evidence and ConsumedKeys hand out views of
// the group's append-only logs, not copies. Appending to a view must not
// reach the group's next snapshot, and the group's later appends must not
// reach a view taken earlier.
func TestEvidenceViewsStayApart(t *testing.T) {
	const partitions, perPart, more = 2, 200, 50
	r := newGroupRig(t, partitions, perPart)
	g, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{Topic: "t", Auto: true, CaptureEvidence: true})
	if err != nil {
		t.Fatal(err)
	}
	drain := false
	g.SetDrainCheck(func() bool { return drain })
	for _, name := range []string{"c0", "c1"} {
		if err := g.Join(name); err != nil {
			t.Fatal(err)
		}
	}
	r.pump(t, 100*time.Millisecond)
	ev, keys := g.Evidence(), g.ConsumedKeys()
	if len(ev.Deliveries) == 0 || len(ev.CommitAcks) == 0 || len(ev.PauseSpans) == 0 {
		t.Fatalf("snapshot holds %d deliveries, %d commit acks, %d pause spans; want some of each",
			len(ev.Deliveries), len(ev.CommitAcks), len(ev.PauseSpans))
	}
	before := cloneEvidence(ev)
	beforeKeys := make([][]uint64, len(keys))
	for p, ks := range keys {
		beforeKeys[p] = slices.Clone(ks)
	}

	// Append through every view; the group's snapshot at this instant is
	// the one taken before.
	ev.Deliveries = append(ev.Deliveries, Delivery{Partition: 99})
	ev.CommitAcks = append(ev.CommitAcks, CommitAck{Partition: 99})
	ev.OwnershipSpans = append(ev.OwnershipSpans, OwnershipSpan{Partition: 99})
	ev.PauseSpans = append(ev.PauseSpans, PauseSpan{Partition: 99})
	for p := range keys {
		keys[p] = append(keys[p], 0)
	}
	if again := g.Evidence(); !reflect.DeepEqual(again, before) {
		t.Fatal("appending to an Evidence view changed the group's next snapshot")
	}
	if again := g.ConsumedKeys(); !reflect.DeepEqual(again, beforeKeys) {
		t.Fatal("appending to a ConsumedKeys view changed the group's next snapshot")
	}

	// Give the group more to deliver, let it drain, then read both sides
	// again.
	key := uint64(partitions * perPart)
	for p := int32(0); p < partitions; p++ {
		recs := make([]wire.Record, more)
		for i := range recs {
			key++
			recs[i] = wire.Record{Key: key}
		}
		r.clst.Leader("t", p).Log("t", p).Append(recs)
	}
	drain = true
	r.pump(t, 2*time.Second)
	after, afterKeys := g.Evidence(), g.ConsumedKeys()
	if len(after.Deliveries) != partitions*(perPart+more) || !after.Drained {
		t.Fatalf("%d deliveries after the drain (drained %v), want %d", len(after.Deliveries), after.Drained, partitions*(perPart+more))
	}
	n, c := len(before.Deliveries), len(before.CommitAcks)
	if !slices.Equal(ev.Deliveries[:n], before.Deliveries) || ev.Deliveries[n].Partition != 99 ||
		!slices.Equal(ev.CommitAcks[:c], before.CommitAcks) || ev.CommitAcks[c].Partition != 99 {
		t.Fatal("the group's later appends reached an earlier view")
	}
	if !slices.Equal(after.Deliveries[:n], before.Deliveries) || after.Deliveries[n].Partition == 99 ||
		!slices.Equal(after.CommitAcks[:c], before.CommitAcks) || after.CommitAcks[c].Partition == 99 {
		t.Fatal("the next snapshot lost a delivery or holds one appended to an earlier view")
	}
	for _, s := range after.OwnershipSpans {
		if s.Partition == 99 {
			t.Fatal("the next snapshot holds an ownership span appended to an earlier view")
		}
	}
	for _, s := range after.PauseSpans {
		if s.Partition == 99 {
			t.Fatal("the next snapshot holds a pause span appended to an earlier view")
		}
	}
	for p, ks := range afterKeys {
		m := len(beforeKeys[p])
		if !slices.Equal(ks[:m], beforeKeys[p]) || len(ks) != perPart+more || slices.Contains(ks, 0) {
			t.Fatalf("partition %d: the next key snapshot lost a key or holds one appended to an earlier view", p)
		}
		if !slices.Equal(keys[p][:m], beforeKeys[p]) || keys[p][m] != 0 {
			t.Fatalf("partition %d: the group's later deliveries reached an earlier key view", p)
		}
	}
}

// cloneEvidence is a deep copy of ev.
func cloneEvidence(ev Evidence) Evidence {
	ev.Deliveries = slices.Clone(ev.Deliveries)
	ev.CommitAcks = slices.Clone(ev.CommitAcks)
	ev.OwnershipSpans = slices.Clone(ev.OwnershipSpans)
	ev.PauseSpans = slices.Clone(ev.PauseSpans)
	return ev
}
