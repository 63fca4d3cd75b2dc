package coordinator

import (
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// rig builds a simulator, a default 3-broker cluster with a "stream"
// topic, and a coordinator.
func rig(t *testing.T, cfg Config) (*des.Simulator, *cluster.Cluster, *Coordinator) {
	t.Helper()
	sim := des.New()
	clst, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := clst.CreateTopic("stream", 4, 3); err != nil {
		t.Fatal(err)
	}
	co, err := New(sim, clst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, clst, co
}

// join sends a JoinGroup and returns a pointer that fills in when the
// rebalance completes.
func join(co *Coordinator, group, member string) *wire.JoinGroupResponse {
	resp := &wire.JoinGroupResponse{Err: wire.ErrorCode(0xFFFF)}
	co.HandleJoinGroup(wire.JoinGroupRequest{Group: group, MemberID: member, Topic: "stream"},
		func(r wire.JoinGroupResponse) { *resp = r })
	return resp
}

func sync(t *testing.T, co *Coordinator, group, member string, gen int32) []int32 {
	t.Helper()
	var resp wire.SyncGroupResponse
	co.HandleSyncGroup(wire.SyncGroupRequest{Group: group, MemberID: member, Generation: gen},
		func(r wire.SyncGroupResponse) { resp = r })
	if resp.Err != wire.ErrNone {
		t.Fatalf("sync %s: %s", member, resp.Err)
	}
	return resp.Assigned
}

func commit(co *Coordinator, group, member string, gen int32, partition int32, offset int64) *wire.OffsetCommitResponse {
	resp := &wire.OffsetCommitResponse{Err: wire.ErrorCode(0xFFFF)}
	co.HandleOffsetCommit(wire.OffsetCommitRequest{
		Group: group, MemberID: member, Generation: gen,
		Topic: "stream", Partition: partition, Offset: offset,
	}, func(r wire.OffsetCommitResponse) { *resp = r })
	return resp
}

func fetchOffset(co *Coordinator, group string, partition int32) wire.OffsetFetchResponse {
	var resp wire.OffsetFetchResponse
	co.HandleOffsetFetch(wire.OffsetFetchRequest{Group: group, Topic: "stream", Partition: partition},
		func(r wire.OffsetFetchResponse) { resp = r })
	return resp
}

func TestJoinSyncLifecycle(t *testing.T) {
	sim, _, co := rig(t, Config{})
	r0 := join(co, "g", "")
	r1 := join(co, "g", "")
	sim.RunUntil(50 * time.Millisecond)
	if r0.Err != wire.ErrNone || r1.Err != wire.ErrNone {
		t.Fatalf("joins: %s / %s", r0.Err, r1.Err)
	}
	if r0.Generation != 1 || r1.Generation != 1 {
		t.Fatalf("generation = %d/%d, want 1 (initial joins must batch)", r0.Generation, r1.Generation)
	}
	if len(r0.Members) != 2 || r0.Leader != r0.Members[0] {
		t.Fatalf("members %v leader %q", r0.Members, r0.Leader)
	}
	a0 := sync(t, co, "g", r0.MemberID, 1)
	a1 := sync(t, co, "g", r1.MemberID, 1)
	if len(a0)+len(a1) != 4 {
		t.Fatalf("assignments %v + %v do not cover 4 partitions", a0, a1)
	}
	if got := co.groups["g"].state.String(); got != "Stable" {
		t.Fatalf("state = %s, want Stable", got)
	}
	// Partitions must be disjoint contiguous ranges, earlier member larger.
	if len(a0) != 2 || len(a1) != 2 || a0[0] != 0 || a0[1] != 1 || a1[0] != 2 || a1[1] != 3 {
		t.Fatalf("range assignment a0=%v a1=%v", a0, a1)
	}
}

func TestCommitFetchDurablePath(t *testing.T) {
	sim, _, co := rig(t, Config{})
	r := join(co, "g", "")
	sim.RunUntil(50 * time.Millisecond)
	sync(t, co, "g", r.MemberID, r.Generation)

	// No commit yet: the fetch must say so explicitly, not return zero.
	if f := fetchOffset(co, "g", 0); f.Err != wire.ErrNoCommittedOffset {
		t.Fatalf("uncommitted fetch err = %s, want NO_COMMITTED_OFFSET", f.Err)
	}

	cr := commit(co, "g", r.MemberID, r.Generation, 0, 42)
	if cr.Err != wire.ErrorCode(0xFFFF) {
		t.Fatalf("commit acked synchronously (%s): the offsets log append must take simulated time", cr.Err)
	}
	sim.RunUntil(60 * time.Millisecond)
	if cr.Err != wire.ErrNone {
		t.Fatalf("commit err = %s", cr.Err)
	}
	f := fetchOffset(co, "g", 0)
	if f.Err != wire.ErrNone || f.Offset != 42 || f.Generation != r.Generation {
		t.Fatalf("fetch = %+v", f)
	}
	st := co.Stats()
	if st.Commits != 1 || st.OffsetsAppended != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStaleGenerationAndUnknownMemberFenced(t *testing.T) {
	sim, _, co := rig(t, Config{SessionTimeout: time.Second})
	r0 := join(co, "g", "")
	sim.RunUntil(50 * time.Millisecond)
	sync(t, co, "g", r0.MemberID, r0.Generation)

	// Second member triggers a rebalance; the first rejoins.
	r1 := join(co, "g", "")
	rejoin := join(co, "g", r0.MemberID)
	sim.RunUntil(100 * time.Millisecond)
	if r1.Err != wire.ErrNone || rejoin.Err != wire.ErrNone {
		t.Fatalf("rebalance joins: %s / %s", r1.Err, rejoin.Err)
	}
	if rejoin.Generation != r0.Generation+1 {
		t.Fatalf("generation %d after rebalance, want %d", rejoin.Generation, r0.Generation+1)
	}

	// A commit with the old generation must be fenced.
	cr := commit(co, "g", r0.MemberID, r0.Generation, 0, 10)
	if cr.Err != wire.ErrIllegalGeneration {
		t.Fatalf("stale commit err = %s, want ILLEGAL_GENERATION", cr.Err)
	}
	// Unknown member too.
	cr = commit(co, "g", "nobody", rejoin.Generation, 0, 10)
	if cr.Err != wire.ErrUnknownMemberID {
		t.Fatalf("unknown-member commit err = %s, want UNKNOWN_MEMBER_ID", cr.Err)
	}
	// Fenced offset fetch with a stale generation.
	var f wire.OffsetFetchResponse
	co.HandleOffsetFetch(wire.OffsetFetchRequest{
		Group: "g", MemberID: r0.MemberID, Generation: r0.Generation,
		Topic: "stream", Partition: 0,
	}, func(r wire.OffsetFetchResponse) { f = r })
	if f.Err != wire.ErrIllegalGeneration {
		t.Fatalf("stale fetch err = %s, want ILLEGAL_GENERATION", f.Err)
	}
	st := co.Stats()
	if st.FencedCommits != 2 || st.FencedFetches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSessionExpiryRebalances(t *testing.T) {
	sim, _, co := rig(t, Config{SessionTimeout: 100 * time.Millisecond})
	r0 := join(co, "g", "")
	r1 := join(co, "g", "")
	sim.RunUntil(50 * time.Millisecond)
	sync(t, co, "g", r0.MemberID, r0.Generation)
	sync(t, co, "g", r1.MemberID, r1.Generation)

	// Keep member 0 alive with heartbeats; let member 1's session lapse.
	hb := des.NewTicker(sim, 30*time.Millisecond, func() {})
	var rejoined *wire.JoinGroupResponse
	des.NewTicker(sim, 30*time.Millisecond, func() {
		co.HandleHeartbeat(wire.HeartbeatRequest{Group: "g", MemberID: r0.MemberID, Generation: co.groups["g"].generation},
			func(resp wire.HeartbeatResponse) {
				if resp.Err == wire.ErrRebalanceInProgress && rejoined == nil {
					rejoined = join(co, "g", r0.MemberID)
				}
			})
	})
	sim.RunUntil(500 * time.Millisecond)
	hb.Stop()
	st := co.Stats()
	if st.SessionExpirations != 1 {
		t.Fatalf("session expirations = %d, want 1 (stats %+v)", st.SessionExpirations, st)
	}
	if rejoined == nil || rejoined.Err != wire.ErrNone {
		t.Fatalf("survivor did not rejoin: %+v", rejoined)
	}
	if len(rejoined.Members) != 1 {
		t.Fatalf("members after expiry = %v", rejoined.Members)
	}
	a := sync(t, co, "g", r0.MemberID, rejoined.Generation)
	if len(a) != 4 {
		t.Fatalf("survivor assignment %v, want all 4 partitions", a)
	}
}

func TestRematerializeDetectsRegression(t *testing.T) {
	sim := des.New()
	ccfg := cluster.DefaultConfig()
	// A long fsync cadence leaves the committed record in the page cache
	// when the unclean crash hits.
	ccfg.Broker.FlushInterval = 10 * time.Second
	clst, err := cluster.New(sim, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := clst.CreateTopic("stream", 2, 3); err != nil {
		t.Fatal(err)
	}
	// Offsets log at replication 1: the canonical lose-committed-offsets
	// setup. The coordinator always appends with acks=all; with the leader
	// the only replica that is acks=1 — the commit is acknowledged on the
	// leader's append, before any fsync.
	co, err := New(sim, clst, Config{OffsetsReplication: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := join(co, "g", "")
	sim.RunUntil(50 * time.Millisecond)
	sync(t, co, "g", r.MemberID, r.Generation)

	cr := commit(co, "g", r.MemberID, r.Generation, 0, 100)
	sim.RunUntil(60 * time.Millisecond)
	if cr.Err != wire.ErrNone {
		t.Fatalf("commit: %s", cr.Err)
	}

	// Unclean crash of the offsets-log leader (broker 0 leads partition 0
	// of every topic) destroys the unflushed commit record; recovery
	// re-elects it and re-materializes from the truncated log.
	if err := clst.CrashBrokerUnclean(0); err != nil {
		t.Fatal(err)
	}
	if err := clst.RecoverBroker(0); err != nil {
		t.Fatal(err)
	}
	regs := co.Regressions()
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly one", regs)
	}
	if regs[0].Before != 100 || regs[0].After != -1 {
		t.Fatalf("regression = %+v, want before=100 after=-1", regs[0])
	}
	if f := fetchOffset(co, "g", 0); f.Err != wire.ErrNoCommittedOffset {
		t.Fatalf("post-loss fetch = %+v, want NO_COMMITTED_OFFSET", f)
	}
}

func TestCompactedMaterializedView(t *testing.T) {
	sim, _, co := rig(t, Config{SessionTimeout: 10 * time.Second})
	r := join(co, "g", "")
	sim.RunUntil(50 * time.Millisecond)
	sync(t, co, "g", r.MemberID, r.Generation)
	for i := int64(1); i <= 50; i++ {
		commit(co, "g", r.MemberID, r.Generation, 0, i)
		sim.RunUntil(sim.Now() + 5*time.Millisecond)
	}
	st := co.Stats()
	if st.OffsetsAppended != 50 {
		t.Fatalf("appended = %d, want 50", st.OffsetsAppended)
	}
	if len(co.offsets) != 1 {
		t.Fatalf("live keys = %d, want 1 (last write wins per key)", len(co.offsets))
	}
	if f := fetchOffset(co, "g", 0); f.Offset != 50 {
		t.Fatalf("fetch offset = %d, want 50", f.Offset)
	}
}

func TestOffsetLogRecordRoundTrip(t *testing.T) {
	r := commitRecord{Group: "g1", Topic: "stream", Partition: 3, Offset: 12345, Generation: 7}
	enc := appendCommitRecord(nil, r)
	got, err := decodeCommitRecord(enc, "g1", "stream")
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("got %+v want %+v", got, r)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeCommitRecord(enc[:cut], "", ""); err == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
	}
	if compactionKey("g1", "stream", 3) == compactionKey("g1", "stream", 4) {
		t.Fatal("compaction keys collide across partitions")
	}
	if compactionKey("a", "bc", 0) == compactionKey("ab", "c", 0) {
		t.Fatal("compaction key ignores the group/topic boundary")
	}
}

// TestDynamicRestartRebalances: a member restarting with a fresh
// (empty) member id is a brand-new member and forces a rebalance.
func TestDynamicRestartRebalances(t *testing.T) {
	sim, _, co := rig(t, Config{SessionTimeout: time.Second})
	r0 := join(co, "g", "")
	r1 := join(co, "g", "")
	sim.RunUntil(50 * time.Millisecond)
	sync(t, co, "g", r0.MemberID, r0.Generation)
	sync(t, co, "g", r1.MemberID, r1.Generation)
	rebalances := co.Stats().Rebalances

	// A dynamic member's restart joins as a stranger; the incumbents must
	// rejoin and the generation bumps.
	restarted := join(co, "g", "")
	rejoin0 := join(co, "g", r0.MemberID)
	rejoin1 := join(co, "g", r1.MemberID)
	sim.RunUntil(200 * time.Millisecond)
	if restarted.Err != wire.ErrNone || rejoin0.Err != wire.ErrNone || rejoin1.Err != wire.ErrNone {
		t.Fatalf("joins: %s / %s / %s", restarted.Err, rejoin0.Err, rejoin1.Err)
	}
	if restarted.Generation != r0.Generation+1 {
		t.Fatalf("generation %d after dynamic restart, want %d", restarted.Generation, r0.Generation+1)
	}
	if got := co.Stats().Rebalances; got != rebalances+1 {
		t.Fatalf("rebalances %d -> %d, want one more", rebalances, got)
	}
}

// TestEvictionRaceCommitFencedWithIllegalGeneration pins the fencing
// order when a session-timeout eviction races an in-flight commit: the
// evicted member's commit, arriving after the eviction's rebalance
// completed, must see ILLEGAL_GENERATION — the drop-the-offset signal —
// and not UNKNOWN_MEMBER_ID, which clients treat as "rejoin and retry
// the commit" and would re-land an offset the member no longer owns.
func TestEvictionRaceCommitFencedWithIllegalGeneration(t *testing.T) {
	sim, _, co := rig(t, Config{SessionTimeout: 100 * time.Millisecond})
	r0 := join(co, "g", "")
	r1 := join(co, "g", "")
	sim.RunUntil(50 * time.Millisecond)
	sync(t, co, "g", r0.MemberID, r0.Generation)
	sync(t, co, "g", r1.MemberID, r1.Generation)

	// Member 0 stays alive and rejoins when the eviction of member 1
	// (which stops heartbeating) forces a rebalance.
	var rejoined *wire.JoinGroupResponse
	tick := des.NewTicker(sim, 30*time.Millisecond, func() {
		co.HandleHeartbeat(wire.HeartbeatRequest{Group: "g", MemberID: r0.MemberID, Generation: co.groups["g"].generation},
			func(resp wire.HeartbeatResponse) {
				if resp.Err == wire.ErrRebalanceInProgress && rejoined == nil {
					rejoined = join(co, "g", r0.MemberID)
				}
			})
	})
	sim.RunUntil(500 * time.Millisecond)
	tick.Stop()
	if co.Stats().SessionExpirations != 1 {
		t.Fatalf("expirations = %d, want 1", co.Stats().SessionExpirations)
	}
	if rejoined == nil || rejoined.Err != wire.ErrNone {
		t.Fatalf("survivor did not rejoin: %+v", rejoined)
	}
	if rejoined.Generation == r1.Generation {
		t.Fatal("rebalance did not bump the generation")
	}

	// The evicted member's in-flight commit finally arrives, carrying the
	// old generation. It is both stale-generation AND unknown-member; the
	// generation check must win.
	cr := commit(co, "g", r1.MemberID, r1.Generation, 0, 99)
	if cr.Err != wire.ErrIllegalGeneration {
		t.Fatalf("evicted member's commit = %s, want ILLEGAL_GENERATION", cr.Err)
	}
	// And the offset must not have landed.
	if f := fetchOffset(co, "g", 0); f.Err != wire.ErrNoCommittedOffset {
		t.Fatalf("fenced commit landed an offset: %+v", f)
	}
}
