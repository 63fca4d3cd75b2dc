package chaos

import (
	"kafkarel/internal/consumer"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/producer"
)

// E2EInput is the consumer-group half of a trial's evidence: what the
// group delivered to the application, what the coordinator's offsets
// log durably acknowledged, and what survived of it. VerifyE2E
// cross-checks it against the end-to-end guarantee the trial's
// semantics promise: producer → replicated log → consumer group.
type E2EInput struct {
	// Semantics the trial ran with.
	Semantics producer.Semantics
	// OffsetsReplication is the coordinator offsets topic's replication
	// factor — it decides whether a lost committed offset is an
	// expected acks=1-era anomaly or an invariant violation.
	OffsetsReplication int
	// Plan is the trial's fault plan.
	Plan Plan
	// Evidence is the group's delivery record. The commit/delivery
	// replay (invariants 1–2) needs CaptureEvidence; the remaining
	// checks run on counters alone.
	Evidence consumer.Evidence
	// ConsumedKeys is the group's per-partition application stream.
	ConsumedKeys [][]uint64
	// FinalCommitted is the durable committed offset per partition at
	// the end of the run (-1 = nothing committed).
	FinalCommitted []int64
	// Regressions are committed watermarks the offsets log lost across
	// unclean restarts (coordinator rematerialization evidence).
	Regressions []coordinator.OffsetRegression
	// Acked, when non-nil, holds a non-zero value for each key the
	// producer counts acknowledged (AckedTally builds it from the outcome
	// log) — the coverage obligation a drained group must meet.
	Acked *consumer.Tally
	// AckedKeys is the same obligation as a key set, for a caller that
	// holds one; it is read only when Acked is nil.
	AckedKeys map[uint64]bool
}

// AckedTally is E2EInput.Acked for a producer's outcome log: the keys it
// resolved delivered or duplicated, over the span of its keys.
func AckedTally(outcomes []producer.Outcome) *consumer.Tally {
	acked := consumer.NewRangeTally([]consumer.KeyRange{outcomeSpan(outcomes)})
	for _, o := range outcomes {
		if o.State == producer.StateDelivered || o.State == producer.StateDuplicated {
			acked.Set(o.Key, 1)
		}
	}
	return acked
}

// ackedSetTally is E2EInput.Acked for a key set: every key in it.
func ackedSetTally(set map[uint64]bool) *consumer.Tally {
	lo, hi := ^uint64(0), uint64(0)
	for k := range set {
		if k != 0 {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	acked := consumer.NewRangeTally([]consumer.KeyRange{keyRange(lo, hi)})
	for k := range set {
		acked.Set(k, 1)
	}
	return acked
}

// VerifyE2E checks the consumer-group invariants of one trial. The
// verdict merges with Verify's via Merge. The invariants:
//
//  1. Commit honesty: replaying deliveries and commit acks in arrival
//     order, no partition's acknowledged commit may exceed the delivered
//     prefix — committing offsets the application never consumed loses
//     data by construction, under every semantics.
//  2. No delivery below the committed watermark under dedup: once
//     offset k is durably committed, an exactly-once group must never
//     hand the application an offset below k again; per-partition
//     delivered offsets must be strictly increasing.
//  3. Final committed offsets are covered by deliveries: the durable
//     resume point never points past what the application saw.
//  4. Committed-offset regressions: a committed watermark the offsets
//     log lost is expected (classified) only when the offsets topic ran
//     under-replicated with broker faults in the plan; under
//     exactly-once or a replicated offsets topic it is a violation.
//  5. Coverage: a group that drained cleanly must have delivered every
//     producer-acked key — missing keys are the acks=1 loss cases when
//     brokers crashed under at-least-once, violations otherwise.
func VerifyE2E(in E2EInput) Verdict {
	var v Verdict
	ev := in.Evidence
	eo := in.Semantics == producer.ExactlyOnce

	// 1 + 2: interleaved replay of deliveries and commit acks.
	if len(ev.Deliveries) > 0 || len(ev.CommitAcks) > 0 {
		parts := len(in.ConsumedKeys)
		maxDelivered := make([]int64, parts) // +1 encoding: 0 = none
		committed := make([]int64, parts)
		lastOff := make([]int64, parts)
		for p := range lastOff {
			lastOff[p] = -1
		}
		ai := 0
		applyAcks := func(upto int) {
			for ai < len(ev.CommitAcks) && ev.CommitAcks[ai].AfterDeliveries <= upto {
				a := ev.CommitAcks[ai]
				ai++
				if int(a.Partition) >= parts {
					v.fail("e2e: commit ack for partition %d outside topic", a.Partition)
					continue
				}
				if a.Offset > maxDelivered[a.Partition] {
					v.fail("e2e: partition %d: committed offset %d beyond delivered prefix %d",
						a.Partition, a.Offset, maxDelivered[a.Partition])
				}
				if a.Offset > committed[a.Partition] {
					committed[a.Partition] = a.Offset
				}
			}
		}
		for i, d := range ev.Deliveries {
			applyAcks(i)
			p := int(d.Partition)
			if p >= parts {
				v.fail("e2e: delivery for partition %d outside topic", d.Partition)
				continue
			}
			if ev.Dedup {
				if d.Offset < committed[p] {
					v.fail("e2e: partition %d: offset %d delivered again past committed watermark %d under dedup",
						d.Partition, d.Offset, committed[p])
				}
				if d.Offset <= lastOff[p] {
					v.fail("e2e: partition %d: delivered offsets not strictly increasing (%d after %d) under dedup",
						d.Partition, d.Offset, lastOff[p])
				}
			}
			lastOff[p] = d.Offset
			if d.Offset+1 > maxDelivered[p] {
				maxDelivered[p] = d.Offset + 1
			}
		}
		applyAcks(len(ev.Deliveries))
	}

	// 3. Durable resume points covered by the application stream. The
	// delivered prefix of partition p holds at least FinalCommitted[p]
	// records (commits trail delivery), so the key stream must too.
	for p, fc := range in.FinalCommitted {
		if fc <= 0 {
			continue
		}
		if p < len(in.ConsumedKeys) && fc > int64(len(in.ConsumedKeys[p])) {
			v.fail("e2e: partition %d: committed offset %d but only %d records ever delivered",
				p, fc, len(in.ConsumedKeys[p]))
		}
	}

	// 4. Lost committed watermarks.
	if n := len(in.Regressions); n > 0 {
		r := in.Regressions[0]
		switch {
		case eo:
			v.fail("e2e: %d committed offsets regressed under exactly-once (first: %s/%s[%d] %d -> %d)",
				n, r.Group, r.Topic, r.Partition, r.Before, r.After)
		case in.OffsetsReplication >= 3:
			v.fail("e2e: %d committed offsets regressed despite offsets replication %d",
				n, in.OffsetsReplication)
		case in.Plan.HasBrokerFaults():
			v.note("e2e: %d committed offsets regressed (offsets topic rf=%d under broker faults — expected redelivery window)",
				n, in.OffsetsReplication)
		default:
			v.fail("e2e: %d committed offsets regressed with no broker fault", n)
		}
	}

	// 5. Acked-key coverage: clear each delivered key in a copy of the
	// acked keys; what stays set was never delivered.
	acked := in.Acked
	if acked == nil && in.AckedKeys != nil {
		acked = ackedSetTally(in.AckedKeys)
	}
	if acked != nil {
		if !ev.Drained {
			v.note("e2e: group did not drain cleanly; coverage not checkable")
		} else {
			pending := acked.Clone()
			for _, keys := range in.ConsumedKeys {
				for _, k := range keys {
					if pending.Get(k) != 0 {
						pending.Set(k, 0)
					}
				}
			}
			missing := 0
			pending.Each(func(uint64, uint32) { missing++ })
			if missing > 0 {
				switch {
				case eo:
					v.fail("e2e: %d producer-acked keys never delivered to the group under exactly-once", missing)
				case in.Plan.HasBrokerFaults():
					v.note("e2e: %d producer-acked keys never reached the group (acks=1 broker-outage loss)", missing)
				default:
					v.fail("e2e: %d producer-acked keys never delivered with no broker fault", missing)
				}
			}
		}
	}

	return v
}

// Merge folds another verdict's findings into v.
func (v *Verdict) Merge(o Verdict) {
	v.Violations = append(v.Violations, o.Violations...)
	v.Classified = append(v.Classified, o.Classified...)
}
