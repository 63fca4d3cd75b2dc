package coordinator

import (
	"slices"

	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// The group state machine follows Kafka's GroupCoordinator:
//
//	Empty ──join──▶ PreparingRebalance ──barrier──▶ CompletingRebalance
//	                    ▲      │ all synced              │
//	                    │      ▼                         ▼
//	                 join/leave/expiry ◀────────────── Stable
//
// Entering PreparingRebalance opens a join barrier: every live member
// must rejoin (members learn via ErrRebalanceInProgress on heartbeats
// and commits). The barrier closes when all members have rejoined —
// checked every rebalanceDelay — or after the coordinator's
// SessionTimeout, when stragglers are evicted. Closing the barrier bumps
// the generation, computes range assignments, and answers the parked
// joins; members then SyncGroup to fetch their assignment, and the group
// is Stable once every member has synced.

// prepareRebalance moves the group into PreparingRebalance (or, if
// already there, re-checks the barrier). Joins parked before the
// transition count as rejoined.
func (g *group) prepareRebalance() {
	if g.state != statePreparingRebalance {
		g.state = statePreparingRebalance
		g.rebalanceAt = g.co.sim.Now()
		g.joinDeadline = g.co.sim.Now() + g.co.cfg.SessionTimeout
		for _, m := range g.members {
			m.joined = m.pendingJoin != nil
		}
		if g.rebalanceTmr == nil {
			g.rebalanceTmr = des.NewTimer(g.co.sim, g.rebalanceTick)
		}
		g.rebalanceTmr.Reset(rebalanceDelay)
	}
	// The group's very first rebalance holds the barrier open for one
	// full rebalanceDelay window — even as later joins arrive and the
	// barrier is momentarily "all joined" — so simultaneous initial
	// joins batch into a single generation instead of one generation
	// per joiner (Kafka's group.initial.rebalance.delay.ms).
	if g.generation > 0 && g.allJoined() {
		g.completeJoin()
	}
}

// rebalanceTick is the join-barrier poll: complete when every member
// has rejoined, evict stragglers at the deadline, otherwise keep
// waiting.
func (g *group) rebalanceTick() {
	if g.state != statePreparingRebalance {
		return
	}
	if g.allJoined() || g.co.sim.Now() >= g.joinDeadline {
		g.completeJoin()
		return
	}
	g.rebalanceTmr.Reset(rebalanceDelay)
}

// completeJoin closes the join barrier: evict members that never
// rejoined, bump the generation, compute range assignments over the
// sorted member ids, and answer every parked join.
func (g *group) completeJoin() {
	co := g.co
	if g.rebalanceTmr != nil {
		g.rebalanceTmr.Stop()
	}
	ids := make([]string, 0, len(g.members))
	for id := range g.members {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	kept := ids[:0]
	for _, id := range ids {
		m := g.members[id]
		if m.joined {
			kept = append(kept, id)
			continue
		}
		co.stats.Evictions++
		g.gstats.Evictions++
		g.removeMember(m)
	}
	g.generation++
	g.needsFollowUp = false
	if len(kept) == 0 {
		g.state = stateEmpty
		return
	}
	// Cooperative incremental assignment (KIP-429) engages when every
	// kept member joined with the cooperative protocol, and uses the
	// cooperative-sticky assignor — the only assignor the cooperative
	// protocol is legal with in Kafka, because stickiness is what keeps
	// the moved set small: each member keeps what it owns (trimmed to
	// its balanced share, lowest partitions first), unowned partitions
	// fill members below their share, and partitions a member must give
	// up stay withheld (owned until revoked) for a follow-up rebalance —
	// triggered the moment the group stabilises — to hand out. A member
	// crash therefore moves only the dead member's partitions, in one
	// round; a join moves exactly the new member's share, in two. Owned
	// sets come from the members' join requests; conflicting claims
	// resolve to the first claimant in sorted member order. Eager groups
	// (any member at ProtocolEager) use Kafka's range assignor:
	// contiguous partition ranges over members sorted by id, earlier
	// members taking the larger ranges.
	coop := true
	for _, id := range kept {
		if g.members[id].protocol < wire.ProtocolCooperative {
			coop = false
			break
		}
	}
	per := int(g.partitions) / len(kept)
	extra := int(g.partitions) % len(kept)
	share := func(i int) int {
		if i < extra {
			return per + 1
		}
		return per
	}
	if coop {
		owner := make(map[int32]string, g.partitions)
		for _, id := range kept {
			for _, p := range g.members[id].owned {
				if p < 0 || p >= g.partitions {
					continue
				}
				if _, taken := owner[p]; !taken {
					owner[p] = id
				}
			}
		}
		ownedBy := make(map[string][]int32, len(kept))
		for p := int32(0); p < g.partitions; p++ {
			if id, ok := owner[p]; ok {
				ownedBy[id] = append(ownedBy[id], p)
			}
		}
		room := make(map[string]int, len(kept))
		for i, id := range kept {
			m := g.members[id]
			own := ownedBy[id]
			if t := share(i); len(own) > t {
				// Over the balanced share: revoke the highest-numbered
				// excess at sync; it stays owned (withheld) until then.
				g.needsFollowUp = true
				own = own[:t]
			}
			m.assigned = append(m.assigned[:0], own...)
			room[id] = share(i) - len(own)
			m.joined, m.synced = false, false
		}
		ui := 0
		for p := int32(0); p < g.partitions; p++ {
			if _, taken := owner[p]; taken {
				continue
			}
			for ui < len(kept) && room[kept[ui]] <= 0 {
				ui++
			}
			if ui >= len(kept) {
				break
			}
			id := kept[ui]
			m := g.members[id]
			m.assigned = append(m.assigned, p)
			room[id]--
		}
		for _, id := range kept {
			a := g.members[id].assigned
			slices.Sort(a)
		}
	} else {
		next := int32(0)
		for i, id := range kept {
			m := g.members[id]
			m.assigned = m.assigned[:0]
			for j := 0; j < share(i); j++ {
				m.assigned = append(m.assigned, next)
				next++
			}
			m.joined, m.synced = false, false
		}
	}
	g.state = stateCompletingRebalance
	co.stats.Rebalances++
	g.gstats.Rebalances++
	co.hRebalance.Observe(int64(co.sim.Now() - g.rebalanceAt))
	members := append([]string(nil), kept...)
	leader := members[0]
	// Answer parked joins in sorted member order (deterministic). The
	// callbacks may reenter the coordinator (sync, commit) immediately.
	for _, id := range members {
		m := g.members[id]
		done := m.pendingJoin
		if done == nil {
			continue
		}
		m.pendingJoin = nil
		done(wire.JoinGroupResponse{
			CorrelationID: m.corrJoin,
			Group:         g.id,
			Generation:    g.generation,
			MemberID:      m.id,
			Leader:        leader,
			Members:       members,
			Err:           wire.ErrNone,
		})
	}
}

// allJoined reports whether every current member has rejoined the
// pending rebalance (vacuously true for an empty group).
func (g *group) allJoined() bool {
	for _, m := range g.members {
		if !m.joined {
			return false
		}
	}
	return true
}

// allSynced reports whether every member fetched the current
// generation's assignment.
func (g *group) allSynced() bool {
	for _, m := range g.members {
		if !m.synced {
			return false
		}
	}
	return true
}

// expireSession evicts a member whose session timer fired — the
// coordinator's view of a crashed or stalled consumer — and rebalances
// its partitions to the survivors.
func (g *group) expireSession(m *member) {
	if g.members[m.id] != m {
		return // already removed (stale timer)
	}
	g.co.stats.SessionExpirations++
	g.gstats.SessionExpirations++
	g.removeMember(m)
	g.prepareRebalance()
}

// removeMember drops a member, stopping its session timer and failing
// any parked join.
func (g *group) removeMember(m *member) {
	m.timer.Stop()
	delete(g.members, m.id)
	if m.pendingJoin != nil {
		done := m.pendingJoin
		m.pendingJoin = nil
		done(wire.JoinGroupResponse{
			CorrelationID: m.corrJoin,
			Group:         g.id,
			MemberID:      m.id,
			Err:           wire.ErrUnknownMemberID,
		})
	}
}
