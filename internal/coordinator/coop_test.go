package coordinator

import (
	"math/rand"
	"testing"
	"time"

	"kafkarel/internal/wire"
)

// coopJoin sends a cooperative-protocol JoinGroup carrying the owned
// partitions the member retained from its previous assignment.
func coopJoin(co *Coordinator, group, member string, owned []int32) *wire.JoinGroupResponse {
	resp := &wire.JoinGroupResponse{Err: wire.ErrorCode(0xFFFF)}
	co.HandleJoinGroup(wire.JoinGroupRequest{
		Group: group, MemberID: member, Topic: "stream",
		Protocol: wire.ProtocolCooperative, OwnedPartitions: owned,
	}, func(r wire.JoinGroupResponse) { *resp = r })
	return resp
}

func eq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCoopStickyCrashMovesOnlyDeadMembersPartitions: a member loss
// under the cooperative-sticky assignor converges in a single round —
// survivors keep exactly what they owned, the dead member's partitions
// fill the gaps, and no follow-up rebalance is scheduled.
func TestCoopStickyCrashMovesOnlyDeadMembersPartitions(t *testing.T) {
	sim, _, co := rig(t, Config{})
	r0 := coopJoin(co, "g", "", nil)
	r1 := coopJoin(co, "g", "", nil)
	r2 := coopJoin(co, "g", "", nil)
	sim.RunUntil(50 * time.Millisecond)
	a0 := sync(t, co, "g", r0.MemberID, r0.Generation)
	a1 := sync(t, co, "g", r1.MemberID, r1.Generation)
	a2 := sync(t, co, "g", r2.MemberID, r2.Generation)
	// Initial shares over 4 partitions: 2/1/1 in sorted member order.
	if !eq(a0, []int32{0, 1}) || !eq(a1, []int32{2}) || !eq(a2, []int32{3}) {
		t.Fatalf("initial sticky fill = %v / %v / %v", a0, a1, a2)
	}

	// r1 disappears; survivors rejoin with their retained owned sets.
	co.HandleLeaveGroup(wire.LeaveGroupRequest{Group: "g", MemberID: r1.MemberID}, nil)
	n0 := coopJoin(co, "g", r0.MemberID, a0)
	n2 := coopJoin(co, "g", r2.MemberID, a2)
	sim.RunUntil(100 * time.Millisecond)
	if n0.Err != wire.ErrNone || n2.Err != wire.ErrNone {
		t.Fatalf("rejoin: %s / %s", n0.Err, n2.Err)
	}
	b0 := sync(t, co, "g", r0.MemberID, n0.Generation)
	b2 := sync(t, co, "g", r2.MemberID, n2.Generation)
	// One round: survivors keep [0,1] and [3]; only the dead member's
	// partition 2 moved, to the member below its balanced share.
	if !eq(b0, []int32{0, 1}) {
		t.Fatalf("survivor lost retained partitions: %v, want [0 1]", b0)
	}
	if !eq(b2, []int32{2, 3}) {
		t.Fatalf("freed partition not absorbed in one round: %v, want [2 3]", b2)
	}
	if got := co.Stats().CoopFollowUps; got != 0 {
		t.Fatalf("crash convergence scheduled %d follow-up rebalances, want 0", got)
	}
	if got := co.groups["g"].state.String(); got != "Stable" {
		t.Fatalf("state = %s, want Stable", got)
	}
}

// TestCoopStickyJoinMovesExactlyNewcomersShare: a fresh joiner
// converges in two rounds. Phase 1 trims the over-share incumbent
// (revocation at sync) while everything it still owns keeps running;
// the automatic follow-up hands exactly the freed share to the
// newcomer. No retained partition moves in either round.
func TestCoopStickyJoinMovesExactlyNewcomersShare(t *testing.T) {
	sim, _, co := rig(t, Config{})
	r0 := coopJoin(co, "g", "", nil)
	r1 := coopJoin(co, "g", "", nil)
	sim.RunUntil(50 * time.Millisecond)
	a0 := sync(t, co, "g", r0.MemberID, r0.Generation)
	a1 := sync(t, co, "g", r1.MemberID, r1.Generation)
	if !eq(a0, []int32{0, 1}) || !eq(a1, []int32{2, 3}) {
		t.Fatalf("initial fill = %v / %v", a0, a1)
	}

	rn := coopJoin(co, "g", "", nil)
	n0 := coopJoin(co, "g", r0.MemberID, a0)
	n1 := coopJoin(co, "g", r1.MemberID, a1)
	sim.RunUntil(100 * time.Millisecond)
	if rn.Err != wire.ErrNone || n0.Err != wire.ErrNone || n1.Err != wire.ErrNone {
		t.Fatalf("phase-1 joins: %s / %s / %s", rn.Err, n0.Err, n1.Err)
	}
	b0 := sync(t, co, "g", r0.MemberID, n0.Generation)
	b1 := sync(t, co, "g", r1.MemberID, n1.Generation)
	bn := sync(t, co, "g", rn.MemberID, rn.Generation)
	// Phase 1: shares are 2/1/1. The incumbent over its share is
	// trimmed (partition 3 revoked at sync); the newcomer gets nothing
	// yet because the freed partition is withheld until revoked.
	if !eq(b0, []int32{0, 1}) || !eq(b1, []int32{2}) || len(bn) != 0 {
		t.Fatalf("phase 1 = %v / %v / %v, want [0 1] / [2] / []", b0, b1, bn)
	}
	if got := co.Stats().CoopFollowUps; got != 1 {
		t.Fatalf("CoopFollowUps = %d after phase-1 stabilisation, want 1", got)
	}

	// Phase 2 opened automatically; members rejoin with phase-1 owned.
	f0 := coopJoin(co, "g", r0.MemberID, b0)
	f1 := coopJoin(co, "g", r1.MemberID, b1)
	fn := coopJoin(co, "g", rn.MemberID, bn)
	sim.RunUntil(200 * time.Millisecond)
	c0 := sync(t, co, "g", r0.MemberID, f0.Generation)
	c1 := sync(t, co, "g", r1.MemberID, f1.Generation)
	cn := sync(t, co, "g", rn.MemberID, fn.Generation)
	if !eq(c0, []int32{0, 1}) || !eq(c1, []int32{2}) || !eq(cn, []int32{3}) {
		t.Fatalf("phase 2 = %v / %v / %v, want [0 1] / [2] / [3]", c0, c1, cn)
	}
	if got := co.Stats().CoopFollowUps; got != 1 {
		t.Fatalf("phase 2 scheduled another follow-up (CoopFollowUps = %d), want 1", got)
	}
	if got := co.groups["g"].state.String(); got != "Stable" {
		t.Fatalf("state = %s, want Stable", got)
	}
}

// TestCommitRacingJoinBarrierRejectedNotDropped pins the commit/join
// race semantics: a current-generation commit during
// PreparingRebalance is the pre-rejoin flush and must land; a commit
// in the new generation from a member that has joined but not yet
// synced must be rejected with REBALANCE_IN_PROGRESS — synchronously,
// exactly once, never silently dropped.
func TestCommitRacingJoinBarrierRejectedNotDropped(t *testing.T) {
	sim, _, co := rig(t, Config{})
	r0 := coopJoin(co, "g", "", nil)
	r1 := coopJoin(co, "g", "", nil)
	sim.RunUntil(50 * time.Millisecond)
	a0 := sync(t, co, "g", r0.MemberID, r0.Generation)
	sync(t, co, "g", r1.MemberID, r1.Generation)

	// Open a rebalance (a third member joins) and immediately commit in
	// the still-current generation: the pre-rejoin flush.
	coopJoin(co, "g", "", nil)
	flush := commit(co, "g", r0.MemberID, r0.Generation, 0, 7)
	if flush.Err != wire.ErrorCode(0xFFFF) {
		t.Fatalf("pre-rejoin flush answered synchronously: %s", flush.Err)
	}
	sim.RunUntil(60 * time.Millisecond)
	if flush.Err != wire.ErrNone {
		t.Fatalf("pre-rejoin flush during PreparingRebalance = %s, want ErrNone", flush.Err)
	}
	if f := fetchOffset(co, "g", 0); f.Err != wire.ErrNone || f.Offset != 7 {
		t.Fatalf("flush not materialized in old generation: err=%s offset=%d", f.Err, f.Offset)
	}

	// Close the barrier: everyone rejoins, generation bumps, nobody has
	// synced yet. A commit in the NEW generation races the barrier.
	n0 := coopJoin(co, "g", r0.MemberID, a0)
	coopJoin(co, "g", r1.MemberID, nil)
	sim.RunUntil(120 * time.Millisecond)
	if n0.Err != wire.ErrNone {
		t.Fatalf("rejoin: %s", n0.Err)
	}
	if got := co.groups["g"].state.String(); got != "CompletingRebalance" {
		t.Fatalf("state = %s, want CompletingRebalance", got)
	}
	raced := commit(co, "g", r0.MemberID, n0.Generation, 0, 9)
	if raced.Err != wire.ErrRebalanceInProgress {
		t.Fatalf("commit racing the join barrier = %s, want REBALANCE_IN_PROGRESS", raced.Err)
	}
	// Old-generation commits at the same point are generation-fenced.
	if stale := commit(co, "g", r0.MemberID, r0.Generation, 0, 9); stale.Err != wire.ErrIllegalGeneration {
		t.Fatalf("stale-generation commit = %s, want ILLEGAL_GENERATION", stale.Err)
	}
	// The rejection is advisory, not destructive: after syncing, the
	// same commit succeeds in the new generation.
	sync(t, co, "g", r0.MemberID, n0.Generation)
	retry := commit(co, "g", r0.MemberID, n0.Generation, 0, 9)
	sim.RunUntil(sim.Now() + 60*time.Millisecond)
	if retry.Err != wire.ErrNone {
		t.Fatalf("post-sync retry = %s, want ErrNone", retry.Err)
	}
	if f := fetchOffset(co, "g", 0); f.Offset != 9 {
		t.Fatalf("materialized offset = %d, want 9", f.Offset)
	}
}

// TestCommitJoinRaceProperty drives randomized join/sync/commit
// interleavings across many seeds and holds the liveness property of
// the commit path: every HandleOffsetCommit callback fires exactly
// once, with either ErrNone (the offset is durably materialized) or a
// clean rejection — never a silent drop, never a double fire. The
// schedule is built to also exercise the commit-racing-the-join-barrier
// window, and the run asserts that the REBALANCE_IN_PROGRESS rejection
// actually occurred somewhere across the seeds.
func TestCommitJoinRaceProperty(t *testing.T) {
	type tracked struct {
		fired int
		err   wire.ErrorCode
	}
	type agent struct {
		id    string
		gen   int32
		owned []int32
		join  *wire.JoinGroupResponse
	}
	var rebalanceRejections, landed int
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim, _, co := rig(t, Config{})
		agents := make([]*agent, 3)
		for i := range agents {
			agents[i] = &agent{}
		}
		var commits []*tracked
		var offset int64
		doCommit := func(a *agent) {
			if a.id == "" {
				return
			}
			offset++
			c := &tracked{}
			commits = append(commits, c)
			co.HandleOffsetCommit(wire.OffsetCommitRequest{
				Group: "g", MemberID: a.id, Generation: a.gen,
				Topic: "stream", Partition: int32(rng.Intn(4)), Offset: offset,
			}, func(r wire.OffsetCommitResponse) {
				c.fired++
				c.err = r.Err
			})
		}
		for step := 0; step < 120; step++ {
			a := agents[rng.Intn(len(agents))]
			// Harvest a completed join; half the time commit BEFORE
			// syncing — the exact window the join barrier fences.
			if a.join != nil && a.join.Err != wire.ErrorCode(0xFFFF) {
				r := a.join
				a.join = nil
				if r.Err == wire.ErrNone {
					a.id, a.gen = r.MemberID, r.Generation
					if rng.Intn(2) == 0 {
						doCommit(a)
					}
					var sr wire.SyncGroupResponse
					co.HandleSyncGroup(wire.SyncGroupRequest{
						Group: "g", MemberID: a.id, Generation: a.gen,
					}, func(r wire.SyncGroupResponse) { sr = r })
					if sr.Err == wire.ErrNone {
						a.owned = append(a.owned[:0], sr.Assigned...)
					}
				}
			}
			switch rng.Intn(5) {
			case 0: // (re)join, cooperative, carrying owned partitions
				if a.join == nil {
					a.join = coopJoin(co, "g", a.id, a.owned)
				}
			case 1:
				doCommit(a)
			case 2:
				if a.id != "" {
					co.HandleHeartbeat(wire.HeartbeatRequest{
						Group: "g", MemberID: a.id, Generation: a.gen,
					}, func(wire.HeartbeatResponse) {})
				}
			case 3:
				if a.id != "" && rng.Intn(8) == 0 { // occasional clean leave
					co.HandleLeaveGroup(wire.LeaveGroupRequest{Group: "g", MemberID: a.id}, nil)
					a.id, a.owned = "", nil
				}
			case 4:
				sim.RunUntil(sim.Now() + time.Duration(1+rng.Intn(10))*time.Millisecond)
			}
		}
		// Drain everything in flight.
		sim.RunUntil(sim.Now() + 2*time.Second)
		for i, c := range commits {
			switch c.fired {
			case 0:
				t.Fatalf("seed %d: commit %d silently dropped (callback never fired)", seed, i)
			case 1:
			default:
				t.Fatalf("seed %d: commit %d callback fired %d times", seed, i, c.fired)
			}
			switch c.err {
			case wire.ErrNone:
				landed++
			case wire.ErrIllegalGeneration, wire.ErrUnknownMemberID:
			case wire.ErrRebalanceInProgress:
				rebalanceRejections++
			default:
				t.Fatalf("seed %d: commit %d resolved with unexpected error %s", seed, i, c.err)
			}
		}
	}
	if landed == 0 {
		t.Fatal("no commit landed across any seed — schedule never exercised the happy path")
	}
	if rebalanceRejections == 0 {
		t.Fatal("no commit was rejected with REBALANCE_IN_PROGRESS across any seed — the join-barrier race was never exercised")
	}
}
