package coordinator

import (
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// BenchmarkCommitPath measures one steady-state durable offset commit:
// OffsetCommit into the coordinator, the sequenced offsets-log append
// replicated at acks=all, the materialised-offset update, and the acked
// response — plus the simulator events in between. It reports 2
// allocs/op, both this loop's own (the response variable and the callback
// closing over it): the path itself allocates nothing per commit, which
// TestCommitToAckDoesNotAllocatePerCommit pins.
func BenchmarkCommitPath(b *testing.B) {
	sim := des.New()
	clst, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := clst.CreateTopic("stream", 1, 3); err != nil {
		b.Fatal(err)
	}
	// A long session timeout keeps the member's expiry timer from ever
	// firing inside the measured loop.
	co, err := New(sim, clst, Config{SessionTimeout: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	jr := wire.JoinGroupResponse{Err: wire.ErrorCode(0xFFFF)}
	co.HandleJoinGroup(wire.JoinGroupRequest{Group: "g", Topic: "stream"},
		func(r wire.JoinGroupResponse) { jr = r })
	if err := sim.RunUntil(50 * time.Millisecond); err != nil {
		b.Fatal(err)
	}
	if jr.Err != wire.ErrNone {
		b.Fatalf("join: %s", jr.Err)
	}
	var sr wire.SyncGroupResponse
	co.HandleSyncGroup(wire.SyncGroupRequest{Group: "g", MemberID: jr.MemberID, Generation: jr.Generation},
		func(r wire.SyncGroupResponse) { sr = r })
	if sr.Err != wire.ErrNone {
		b.Fatalf("sync: %s", sr.Err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr := wire.OffsetCommitResponse{Err: wire.ErrorCode(0xFFFF)}
		co.HandleOffsetCommit(wire.OffsetCommitRequest{
			Group: "g", MemberID: jr.MemberID, Generation: jr.Generation,
			Topic: "stream", Partition: 0, Offset: int64(i),
		}, func(r wire.OffsetCommitResponse) { cr = r })
		for cr.Err == wire.ErrorCode(0xFFFF) {
			if err := sim.RunUntil(sim.Now() + time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
		if cr.Err != wire.ErrNone {
			b.Fatalf("commit %d: %s", i, cr.Err)
		}
	}
	b.StopTimer()
	if got := co.Stats().Commits; got != uint64(b.N) {
		b.Fatalf("commits = %d, want %d", got, b.N)
	}
}

// rebalanceRig builds a six-member cooperative group on a twelve-partition
// topic, joined and synced to Stable once. Each call of the returned bump
// is one full generation bump: every member rejoins carrying its owned
// partitions, the join barrier batches and closes, the sticky assignor
// recomputes the (unchanged) assignment, and every member syncs back to
// Stable — the coordinator-side cost the cooperative protocol pays twice
// per membership change.
func rebalanceRig(tb testing.TB) (*Coordinator, func()) {
	sim := des.New()
	clst, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if err := clst.CreateTopic("stream", 12, 3); err != nil {
		tb.Fatal(err)
	}
	co, err := New(sim, clst, Config{SessionTimeout: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	const members = 6
	type peer struct {
		id    string
		owned []int32
	}
	peers := make([]*peer, members)
	join := make([]wire.JoinGroupResponse, members)
	for i := range peers {
		peers[i] = &peer{}
		r := &join[i]
		co.HandleJoinGroup(wire.JoinGroupRequest{
			Group: "g", Topic: "stream", Protocol: wire.ProtocolCooperative,
		}, func(resp wire.JoinGroupResponse) { *r = resp })
	}
	cycle := func() {
		if err := sim.RunUntil(sim.Now() + 50*time.Millisecond); err != nil {
			tb.Fatal(err)
		}
		for i, p := range peers {
			if join[i].Err != wire.ErrNone {
				tb.Fatalf("join %d: %s", i, join[i].Err)
			}
			p.id = join[i].MemberID
			var sr wire.SyncGroupResponse
			co.HandleSyncGroup(wire.SyncGroupRequest{
				Group: "g", MemberID: p.id, Generation: join[i].Generation,
			}, func(resp wire.SyncGroupResponse) { sr = resp })
			if sr.Err != wire.ErrNone {
				tb.Fatalf("sync %d: %s", i, sr.Err)
			}
			p.owned = append(p.owned[:0], sr.Assigned...)
		}
	}
	cycle()
	bump := func() {
		for j, p := range peers {
			r := &join[j]
			co.HandleJoinGroup(wire.JoinGroupRequest{
				Group: "g", MemberID: p.id, Topic: "stream",
				Protocol: wire.ProtocolCooperative, OwnedPartitions: p.owned,
			}, func(resp wire.JoinGroupResponse) { *r = resp })
		}
		cycle()
	}
	return co, bump
}

// checkStickyBumps fails unless each of the group's bumps was one
// generation and no follow-up: sticky assignment over a stable membership
// revokes nothing.
func checkStickyBumps(tb testing.TB, co *Coordinator, bumps int) {
	if got := co.Stats().CoopFollowUps; got != 0 {
		tb.Fatalf("CoopFollowUps = %d, want 0", got)
	}
	if got := co.groups["g"].generation; got != int32(bumps+1) {
		tb.Fatalf("generation = %d, want %d", got, bumps+1)
	}
}

// TestRebalanceAllocationCeiling holds one cooperative generation bump of
// rebalanceRig's group to the 35 allocations it measures. Six of them are
// the driver's own: the callback each member hands HandleJoinGroup closes
// over that member's response slot, and the coordinator keeps it until
// the barrier closes. The other 29 are the coordinator's: the sticky
// assignor's ownership map, member lists and per-member partition sorts,
// and each sync's copy of the member's assignment.
func TestRebalanceAllocationCeiling(t *testing.T) {
	co, bump := rebalanceRig(t)
	const bumps = 2000
	allocs := testing.AllocsPerRun(bumps, bump)
	checkStickyBumps(t, co, bumps+1) // AllocsPerRun warms up once
	if allocs > 35 {
		t.Fatalf("a generation bump allocates %.0f objects, want <= 35", allocs)
	}
}

// BenchmarkRebalance measures rebalanceRig's generation bump; its
// allocation count is TestRebalanceAllocationCeiling's to hold.
func BenchmarkRebalance(b *testing.B) {
	co, bump := rebalanceRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bump()
	}
	b.StopTimer()
	checkStickyBumps(b, co, b.N)
}
