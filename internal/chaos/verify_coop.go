package chaos

import (
	"cmp"
	"slices"

	"kafkarel/internal/consumer"
	"kafkarel/internal/coordinator"
)

// CoopInput is one consumer group's evidence from a cooperative-churn
// trial. VerifyCoop checks the incremental-rebalance invariants on it;
// a multi-group trial verifies each group independently.
type CoopInput struct {
	// Group names the group in findings (defaults to Evidence.Group).
	Group string
	// OffsetsReplication is the offsets topic's replication factor — it
	// decides whether a broken redelivery bound is a violation or the
	// expected echo of a lost committed watermark.
	OffsetsReplication int
	// Plan is the trial's fault plan.
	Plan Plan
	// Evidence is the group's delivery record. Ownership spans and the
	// delivery log (invariants 1–2) need CaptureEvidence; the redelivery
	// bound (invariant 3) runs on counters alone.
	Evidence consumer.Evidence
	// Regressions are committed watermarks the offsets log lost across
	// unclean restarts; they legitimately break the redelivery bound.
	Regressions []coordinator.OffsetRegression
}

// VerifyCoop checks the cooperative-rebalance invariants of one group's
// trial evidence. The verdict merges with Verify's and VerifyE2E's via
// Merge. The invariants:
//
//  1. Single ownership: no partition is owned by two live members in
//     strictly overlapping sim-time. Spans are half-open — a revocation
//     and the next owner's acquisition at the same instant is a clean
//     handoff, not an overlap.
//  2. No delivery gap: per partition, first-time delivered offsets are
//     contiguous from 0 — a retained partition must keep delivering
//     across the generation bump, and a moved one must resume at or
//     below where it left off, never beyond it.
//  3. Bounded redelivery: Redelivered never exceeds RedeliveryBudget,
//     the sum of every ownership handoff's uncommitted window and every
//     truncation rewind. A group that redelivers more re-consumed data
//     no handoff explains. Lost committed watermarks (offsets topic
//     under-replicated, broker faults in the plan) widen the real
//     resume windows beyond what the group could observe, so the breach
//     is classified rather than failed when regressions are present.
func VerifyCoop(in CoopInput) Verdict {
	var v Verdict
	ev := in.Evidence
	name := in.Group
	if name == "" {
		name = ev.Group
	}

	// 1. Single ownership per partition, half-open span semantics.
	byPart := map[int32][]consumer.OwnershipSpan{}
	for _, s := range ev.OwnershipSpans {
		if s.To >= 0 && s.To < s.From {
			v.fail("coop %s: partition %d: inverted ownership span [%v,%v) by %s",
				name, s.Partition, s.From, s.To, s.Member)
			continue
		}
		byPart[s.Partition] = append(byPart[s.Partition], s)
	}
	parts := make([]int32, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	slices.Sort(parts)
	for _, p := range parts {
		spans := byPart[p]
		slices.SortStableFunc(spans, func(a, b consumer.OwnershipSpan) int { return cmp.Compare(a.From, b.From) })
		for i := 1; i < len(spans); i++ {
			prev, cur := spans[i-1], spans[i]
			if cur.From < prev.To {
				v.fail("coop %s: partition %d owned by %s (gen %d, [%v,%v)) and %s (gen %d, [%v,%v)) in overlapping sim-time",
					name, p, prev.Member, prev.Generation, prev.From, prev.To,
					cur.Member, cur.Generation, cur.From, cur.To)
			}
		}
	}

	// 2. Delivery contiguity: fresh deliveries advance 0,1,2,... per
	// partition; an offset beyond next is a gap the group skipped.
	next := map[int32]int64{}
	for _, d := range ev.Deliveries {
		n := next[d.Partition]
		switch {
		case d.Offset == n:
			next[d.Partition] = n + 1
		case d.Offset > n:
			v.fail("coop %s: partition %d: delivery gap — offset %d delivered before %d",
				name, d.Partition, d.Offset, n)
			next[d.Partition] = d.Offset + 1
		}
		// d.Offset < n is a redelivery; invariant 3 bounds those.
	}

	// 3. Bounded redelivery.
	if ev.Redelivered > ev.RedeliveryBudget {
		switch {
		case len(in.Regressions) > 0:
			v.note("coop %s: redelivered %d exceeds handoff budget %d (%d committed-offset regressions, offsets rf=%d — resume points moved beneath the group)",
				name, ev.Redelivered, ev.RedeliveryBudget, len(in.Regressions), in.OffsetsReplication)
		case in.OffsetsReplication < 3 && in.Plan.HasBrokerFaults():
			v.note("coop %s: redelivered %d exceeds handoff budget %d (offsets rf=%d under broker faults)",
				name, ev.Redelivered, ev.RedeliveryBudget, in.OffsetsReplication)
		default:
			v.fail("coop %s: redelivered %d exceeds the handoff budget %d — a redelivery storm no revocation explains",
				name, ev.Redelivered, ev.RedeliveryBudget)
		}
	}

	return v
}
