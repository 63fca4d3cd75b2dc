package chaos

import (
	"fmt"

	"kafkarel/internal/broker"
	"kafkarel/internal/consumer"
	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
)

// TrialInput is the end-to-end evidence of one run, gathered from every
// layer: the producer's per-record outcome log, the consumer's
// reconciliation, the per-partition log contents, broker counters, and
// the run's timeline. Verify cross-checks them against the delivery
// guarantees the trial's semantics promise under its fault plan.
type TrialInput struct {
	// Semantics the producer ran with (assumed fixed for the trial).
	Semantics producer.Semantics
	// MaxInFlight gates the ordering invariant (it only holds at 1).
	MaxInFlight int
	// Replication is the topic's replication factor.
	Replication int
	// Plan is the fault plan the trial ran under; it decides whether
	// acked-data loss is an expected Case (acks=1 + broker outage) or an
	// invariant violation.
	Plan Plan
	// Completed reports whether the producer drained its source.
	Completed bool
	// Acquired is how many records entered the producer.
	Acquired uint64
	// Counts is the producer's aggregate view.
	Counts producer.Counts
	// Outcomes is the producer's per-record log (WithOutcomeLog).
	Outcomes []producer.Outcome
	// Consumed holds, per partition, the record keys in offset order.
	Consumed [][]uint64
	// Report is the consumer reconciliation over all partitions.
	Report consumer.Report
	// Brokers holds every broker's counters.
	Brokers []broker.Stats
	// Timeline, when non-nil, is cross-checked: interval deltas must sum
	// to the end-of-run counters.
	Timeline *obs.Timeline
	// PktsLost and Retransmits are the end-of-run network and transport
	// counters the timeline columns must sum to (ignored without a
	// timeline).
	PktsLost    uint64
	Retransmits uint64
}

// Verdict is Verify's result: hard invariant violations, plus expected
// anomalies the fault plan explains (classified, not violations) — e.g.
// acked-but-lost records after an unclean restart under acks=1, the
// exact loss mode the paper's semantics taxonomy predicts.
type Verdict struct {
	Violations []string
	Classified []string
}

// OK reports whether the trial upheld every invariant.
func (v Verdict) OK() bool { return len(v.Violations) == 0 }

func (v *Verdict) fail(format string, args ...any) {
	v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
}

func (v *Verdict) note(format string, args ...any) {
	v.Classified = append(v.Classified, fmt.Sprintf(format, args...))
}

// Verify checks one trial's evidence. The invariants:
//
//  1. Conservation: every acquired record resolves to exactly one
//     terminal state (completed runs), and the outcome log, the
//     aggregate counts, and the acquisition counter agree.
//  2. No foreign keys: the log never contains records the source never
//     produced.
//  3. Acked ⇒ appended: a record the producer counts delivered is in
//     the log — always under exactly-once, and under any semantics when
//     no broker fault ran (network faults alone cannot lose acked
//     data). Under acks=1 with broker outages the loss is classified.
//  4. Duplicates: exactly-once and at-most-once admit none (consumer
//     side and broker side); at-least-once duplicates are classified,
//     and with max-in-flight 1 and no broker faults the broker's
//     duplicate-append record count must equal replication-factor times
//     the consumer's extra copies.
//  5. Ordering: at max-in-flight 1 each partition's first-appearance
//     key order is strictly increasing.
//  6. Timeline: every counter column's interval deltas sum to the
//     end-of-run counter — no event escaped sampling.
func Verify(in TrialInput) Verdict {
	var v Verdict

	// 1. Conservation and outcome-log consistency. Every key set below
	// is a consumer.Tally over the outcome keys' span: a consumed key
	// outside it has no outcome, and only such a key reaches a map.
	span := []consumer.KeyRange{outcomeSpan(in.Outcomes)}
	outcome := consumer.NewRangeTally(span) // ackedKey | lostKey bits
	var nDelivered, nLost, nOther uint64
	for _, o := range in.Outcomes {
		switch o.State {
		case producer.StateDelivered, producer.StateDuplicated:
			nDelivered++
			outcome.Set(o.Key, outcome.Get(o.Key)|ackedKey)
		case producer.StateLost:
			nLost++
			outcome.Set(o.Key, outcome.Get(o.Key)|lostKey)
		default:
			nOther++
		}
	}
	if nOther > 0 {
		v.fail("outcome log holds %d non-terminal states", nOther)
	}
	if nDelivered != in.Counts.Delivered || nLost != in.Counts.Lost {
		v.fail("outcome log (%d delivered, %d lost) disagrees with counts (%d, %d)",
			nDelivered, nLost, in.Counts.Delivered, in.Counts.Lost)
	}
	if in.Counts.Delivered+in.Counts.Lost != in.Counts.Total {
		v.fail("counts leak: delivered %d + lost %d != total %d",
			in.Counts.Delivered, in.Counts.Lost, in.Counts.Total)
	}
	if in.Completed {
		if in.Counts.Total != in.Acquired {
			v.fail("completed run resolved %d of %d acquired records", in.Counts.Total, in.Acquired)
		}
	} else if in.Counts.Total > in.Acquired {
		v.fail("resolved %d records but acquired only %d", in.Counts.Total, in.Acquired)
	}

	// 2. Foreign keys.
	if in.Report.Foreign > 0 {
		v.fail("%d foreign keys in the log", in.Report.Foreign)
	}

	// Consumed key set and per-partition ordering. seenIn holds p+1 for
	// the last partition p a key appeared in: partitions are read one
	// after another, so a key whose value is already p+1 is a copy
	// replayed within p, and a value other than 0 means consumed.
	seenIn := consumer.NewRangeTally(span)
	for p, keys := range in.Consumed {
		var lastNew uint64
		mark := uint32(p + 1)
		for _, k := range keys {
			if seenIn.Get(k) == mark {
				continue // replayed copy; first appearance already ordered
			}
			seenIn.Set(k, mark)
			// 5. Ordering at max-in-flight 1: with the retrying batch
			// holding its in-flight slot (Kafka's partition muting), a new
			// key can never appear before an earlier one. Records the
			// producer resolved lost are exempt: a timed-out batch
			// releases its slot, so its zombie copy (Case 3: the attempt
			// landed after the give-up) may appear anywhere in the log.
			if outcome.Get(k)&lostKey != 0 {
				continue
			}
			if in.MaxInFlight == 1 && k <= lastNew {
				v.fail("partition %d: key %d first appears after key %d (ordering broken at max-in-flight 1)",
					p, k, lastNew)
			}
			if k > lastNew {
				lastNew = k
			}
		}
	}

	// 3. Acked ⇒ appended. Producer-lost records that still appear are
	// the paper's Case 3/5 ambiguity (a timed-out attempt's copy landed
	// anyway): expected under retries, never a violation.
	var ackedLost, lostButAppeared uint64
	outcome.Each(func(k uint64, bits uint32) {
		seen := seenIn.Get(k) != 0
		if bits&ackedKey != 0 && !seen {
			ackedLost++
		}
		if bits&lostKey != 0 && seen {
			lostButAppeared++
		}
	})
	if ackedLost > 0 {
		switch {
		case in.Semantics == producer.ExactlyOnce:
			v.fail("%d acked records missing from the log under exactly-once", ackedLost)
		case !in.Plan.HasBrokerFaults():
			v.fail("%d acked records missing from the log with no broker fault", ackedLost)
		default:
			v.note("%d acked records lost to broker outage under %v (expected acks=1 loss)",
				ackedLost, in.Semantics)
		}
	}
	if lostButAppeared > 0 {
		v.note("%d producer-lost records appear in the log (timed-out attempt landed)", lostButAppeared)
	}

	// 4. Duplicates.
	var dupAppends, dupRecords uint64
	for _, st := range in.Brokers {
		dupAppends += st.DuplicateAppends
		dupRecords += st.DuplicateRecords
	}
	switch in.Semantics {
	case producer.ExactlyOnce:
		if in.Report.NDuplicated > 0 {
			v.fail("%d duplicated keys under exactly-once", in.Report.NDuplicated)
		}
		if dupAppends > 0 {
			v.fail("%d broker duplicate appends under exactly-once", dupAppends)
		}
	case producer.AtMostOnce:
		if in.Report.NDuplicated > 0 {
			v.fail("%d duplicated keys under at-most-once (no retries ran)", in.Report.NDuplicated)
		}
	default:
		if in.Report.NDuplicated > 0 {
			v.note("%d duplicated keys under at-least-once (Case 5)", in.Report.NDuplicated)
		}
		if in.MaxInFlight == 1 && !in.Plan.HasBrokerFaults() && in.Replication > 0 {
			want := uint64(in.Replication) * in.Report.ExtraCopies
			if dupRecords != want {
				v.fail("broker duplicate records %d != replication %d x extra copies %d",
					dupRecords, in.Replication, in.Report.ExtraCopies)
			}
		}
	}

	// 6. Timeline column sums.
	if in.Timeline != nil {
		var sumAcked, sumLost, sumDup, sumPkts, sumRetrans uint64
		in.Timeline.EachRow(func(row obs.TimelineRow) {
			sumAcked += row.Acked
			sumLost += row.Lost
			sumDup += row.DupAppends
			sumPkts += row.PktsLost
			sumRetrans += row.Retransmits
		})
		check := func(col string, got, want uint64) {
			if got != want {
				v.fail("timeline %s column sums to %d, counter says %d", col, got, want)
			}
		}
		check("acked", sumAcked, in.Counts.Delivered)
		check("lost", sumLost, in.Counts.Lost)
		check("dup_appends", sumDup, dupAppends)
		check("pkts_lost", sumPkts, in.PktsLost)
		check("retransmits", sumRetrans, in.Retransmits)
	}

	return v
}

// The bits chaos.Verify keeps per outcome key.
const (
	ackedKey uint32 = 1 << iota // some outcome delivered or duplicated it
	lostKey                     // some outcome lost it
)

// outcomeSpan is the key range min..max of the outcome log's keys.
func outcomeSpan(outcomes []producer.Outcome) consumer.KeyRange {
	lo, hi := ^uint64(0), uint64(0)
	for _, o := range outcomes {
		if o.Key != 0 {
			lo, hi = min(lo, o.Key), max(hi, o.Key)
		}
	}
	return keyRange(lo, hi)
}

// keyRange is the range of keys lo..hi, or no range when hi is 0: key 0
// is outside every range, so a set of keys with no other spans nothing.
func keyRange(lo, hi uint64) consumer.KeyRange {
	if hi == 0 {
		return consumer.KeyRange{}
	}
	return consumer.KeyRange{Base: lo - 1, Count: hi - lo + 1}
}
