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
// response — plus the simulator events in between. The allocs/op figure
// is what `make bench-gate` locks in: 2, both this loop's own (the
// response variable and the callback closing over it). The commit job is
// pooled and the record is slab-carved, so the path itself allocates
// nothing per commit; TestCommitToAckDoesNotAllocatePerCommit pins that.
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

// BenchmarkRebalance measures one full cooperative rebalance cycle for
// a six-member group on a twelve-partition topic: every member rejoins
// carrying its owned partitions, the join barrier batches and closes,
// the sticky assignor recomputes the (unchanged) assignment, and every
// member syncs back to Stable. This is the coordinator-side cost of a
// generation bump — the control-plane path the cooperative protocol
// takes twice per membership change — so `make bench-gate` watches it
// alongside the commit path.
func BenchmarkRebalance(b *testing.B) {
	sim := des.New()
	clst, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := clst.CreateTopic("stream", 12, 3); err != nil {
		b.Fatal(err)
	}
	co, err := New(sim, clst, Config{SessionTimeout: time.Hour})
	if err != nil {
		b.Fatal(err)
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
			b.Fatal(err)
		}
		for i, p := range peers {
			if join[i].Err != wire.ErrNone {
				b.Fatalf("join %d: %s", i, join[i].Err)
			}
			p.id = join[i].MemberID
			var sr wire.SyncGroupResponse
			co.HandleSyncGroup(wire.SyncGroupRequest{
				Group: "g", MemberID: p.id, Generation: join[i].Generation,
			}, func(resp wire.SyncGroupResponse) { sr = resp })
			if sr.Err != wire.ErrNone {
				b.Fatalf("sync %d: %s", i, sr.Err)
			}
			p.owned = append(p.owned[:0], sr.Assigned...)
		}
	}
	cycle()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range peers {
			r := &join[j]
			co.HandleJoinGroup(wire.JoinGroupRequest{
				Group: "g", MemberID: p.id, Topic: "stream",
				Protocol: wire.ProtocolCooperative, OwnedPartitions: p.owned,
			}, func(resp wire.JoinGroupResponse) { *r = resp })
		}
		cycle()
	}
	b.StopTimer()
	// Sticky assignment over a stable membership: every cycle is one
	// generation bump and zero follow-ups.
	if got := co.Stats().CoopFollowUps; got != 0 {
		b.Fatalf("CoopFollowUps = %d, want 0", got)
	}
	if got := co.groups["g"].generation; got != int32(b.N+1) {
		b.Fatalf("generation = %d, want %d", got, b.N+1)
	}
}
