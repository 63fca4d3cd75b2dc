package chaos

import (
	"cmp"
	"fmt"
	"slices"

	"kafkarel/internal/wire"
)

// TxnOutcome is how one transactional attempt ended at its client.
type TxnOutcome int

// Attempt outcomes. TxnInFlight covers both attempts cut off by a crash
// and attempts whose EndTxn answer was lost — the client cannot tell
// whether such a transaction committed, so the verifier treats its
// output as possible but not obligatory.
const (
	TxnInFlight TxnOutcome = iota
	TxnCommitted
	TxnAborted
	TxnFenced
)

// String implements fmt.Stringer.
func (o TxnOutcome) String() string {
	switch o {
	case TxnInFlight:
		return "in-flight"
	case TxnCommitted:
		return "committed"
	case TxnAborted:
		return "aborted"
	case TxnFenced:
		return "fenced"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// TxnAttempt is the evidence one consume-process-produce cycle leaves
// behind: which processor incarnation ran it, what input range it
// consumed, what output keys it produced, and how it ended. The testbed
// pipeline records one per Begin, updating it as the attempt resolves.
type TxnAttempt struct {
	// Processor is the transactional.id.
	Processor string
	// Instance is the incarnation ordinal under that id (0 = first).
	Instance int
	// Epoch is the producer epoch the attempt ran at.
	Epoch uint32
	// Partition is the input (and output) partition processed.
	Partition int32
	// InputStart and InputEnd bound the consumed input offsets
	// [InputStart, InputEnd); on commit the group offset moves to
	// InputEnd.
	InputStart, InputEnd int64
	// OutputKeys are the record keys the attempt produced.
	OutputKeys []uint64
	// Outcome is the client-side resolution.
	Outcome TxnOutcome
	// Deliberate marks an abort the application chose (vs an error path).
	Deliberate bool
	// CommitIssued reports whether EndTxn(commit) was ever sent — the
	// only attempts whose output may legally become committed-visible.
	CommitIssued bool
	// SupersededAtCommit reports that a newer incarnation of the
	// transactional.id had already completed InitProducerId when this
	// attempt issued its commit: the commit MUST be fenced.
	SupersededAtCommit bool
}

// TxnInput is the end-of-trial evidence of one transactional pipeline
// run. Keys are unique per input partition, and each output partition
// is scanned twice: once at read_committed (the isolation the
// guarantees are stated at) and once at read_uncommitted (the residue
// view).
type TxnInput struct {
	// Isolation is the trial's configured consumer isolation — it decides
	// whether aborted residue in the consumer view is a configuration
	// expectation or impossible.
	Isolation wire.IsolationLevel
	// Plan is the trial's fault plan.
	Plan Plan
	// Attempts is every transactional attempt, in start order.
	Attempts []TxnAttempt
	// InputKeys holds, per partition, the input record keys in offset
	// order (input offset i carries InputKeys[p][i]).
	InputKeys [][]uint64
	// CommittedOffsets is the durable group offset per input partition at
	// the end of the run (-1 = nothing committed).
	CommittedOffsets []int64
	// OutputCommitted holds, per output partition, the keys visible at
	// read_committed.
	OutputCommitted [][]uint64
	// OutputUncommitted holds the same scan at read_uncommitted.
	OutputUncommitted [][]uint64
	// Completed reports whether every partition's input was fully
	// processed and committed.
	Completed bool
}

// VerifyTxn checks the transactional invariants of one trial. The
// invariants, per partition:
//
//  1. No phantom commits: every key visible at read_committed belongs
//     to some attempt that issued EndTxn(commit) — records from aborted
//     or never-ended transactions must be filtered.
//  2. Zombie fencing: an attempt whose commit was issued after a newer
//     incarnation completed InitProducerId must not end Committed.
//  3. Commit atomicity: the durable group offset equals the InputEnd of
//     some commit-issued attempt (output and offsets move together or
//     not at all), is never below a client-confirmed commit, and
//     client-confirmed committed input ranges never overlap.
//  4. Exactly-once delivery: every input key below the committed offset
//     appears exactly once at read_committed; a key at-or-above it
//     appearing committed-visible is a violation when the run completed
//     (and an in-flight resolution note when it was cut off).
//  5. Isolation residue: keys visible at read_uncommitted beyond their
//     committed count are aborted/in-flight residue — expected
//     configuration behaviour in a read_uncommitted trial (classified),
//     unreachable by a read_committed consumer.
//  6. Completion: an unfinished pipeline is expected under broker or
//     processor faults, a violation without any.
func VerifyTxn(in TxnInput) Verdict {
	var v Verdict
	parts := len(in.InputKeys)

	byPart := make([][]*TxnAttempt, parts)
	for i := range in.Attempts {
		a := &in.Attempts[i]
		if int(a.Partition) >= parts || a.Partition < 0 {
			v.fail("txn: attempt by %s/%d on partition %d outside topic", a.Processor, a.Instance, a.Partition)
			continue
		}
		byPart[a.Partition] = append(byPart[a.Partition], a)

		// 2. Zombie fencing.
		if a.SupersededAtCommit && a.Outcome == TxnCommitted {
			v.fail("txn: %s/%d committed [%d,%d) after a newer incarnation was initialised (zombie commit not fenced)",
				a.Processor, a.Instance, a.InputStart, a.InputEnd)
		}
	}

	counts := func(keys []uint64) map[uint64]int {
		m := make(map[uint64]int, len(keys))
		for _, k := range keys {
			m[k]++
		}
		return m
	}

	for p := 0; p < parts; p++ {
		var committed, uncommitted map[uint64]int
		if p < len(in.OutputCommitted) {
			committed = counts(in.OutputCommitted[p])
		}
		if p < len(in.OutputUncommitted) {
			uncommitted = counts(in.OutputUncommitted[p])
		}
		commitIssued := make(map[uint64]bool)
		var confirmed []*TxnAttempt
		var cp int64 = -1
		if p < len(in.CommittedOffsets) {
			cp = in.CommittedOffsets[p]
		}
		for _, a := range byPart[p] {
			if a.CommitIssued {
				for _, k := range a.OutputKeys {
					commitIssued[k] = true
				}
			}
			if a.Outcome == TxnCommitted {
				confirmed = append(confirmed, a)
				// 3. A confirmed commit's offset must be durable.
				if cp < a.InputEnd {
					v.fail("txn: partition %d: %s/%d commit confirmed through input %d but durable offset is %d",
						p, a.Processor, a.Instance, a.InputEnd, cp)
				}
			}
		}

		// 1. No phantom commits.
		phantom := 0
		for k, n := range committed {
			if n > 0 && !commitIssued[k] {
				phantom++
			}
		}
		if phantom > 0 {
			v.fail("txn: partition %d: %d keys visible at read_committed from transactions that never issued a commit", p, phantom)
		}

		// 3. Durable offset explained by some commit-issued attempt, and
		// confirmed-committed ranges disjoint.
		if cp > 0 {
			explained := false
			for _, a := range byPart[p] {
				if a.CommitIssued && a.InputEnd == cp {
					explained = true
					break
				}
			}
			if !explained {
				v.fail("txn: partition %d: durable offset %d matches no commit-issued attempt boundary", p, cp)
			}
		}
		slices.SortFunc(confirmed, func(a, b *TxnAttempt) int { return cmp.Compare(a.InputStart, b.InputStart) })
		for i := 1; i < len(confirmed); i++ {
			if confirmed[i].InputStart < confirmed[i-1].InputEnd {
				v.fail("txn: partition %d: confirmed commits overlap ([%d,%d) and [%d,%d)) — input range processed twice",
					p, confirmed[i-1].InputStart, confirmed[i-1].InputEnd, confirmed[i].InputStart, confirmed[i].InputEnd)
			}
		}

		// 4. Exactly-once against the committed watermark.
		lost, dup, early := 0, 0, 0
		for i, k := range in.InputKeys[p] {
			n := committed[k]
			switch {
			case int64(i) < cp && n == 0:
				lost++
			case n > 1:
				dup++
			case int64(i) >= cp && n == 1:
				early++
			}
		}
		if lost > 0 {
			v.fail("txn: partition %d: %d committed input keys missing at read_committed (committed output lost)", p, lost)
		}
		if dup > 0 {
			v.fail("txn: partition %d: %d input keys committed more than once (exactly-once broken)", p, dup)
		}
		if early > 0 {
			if in.Completed {
				v.fail("txn: partition %d: %d keys committed-visible beyond the durable offset %d", p, early, cp)
			} else {
				v.note("txn: partition %d: %d keys committed-visible beyond durable offset %d (resolution in flight at horizon)", p, early, cp)
			}
		}

		// 5. Residue at read_uncommitted.
		residue := 0
		for k, n := range uncommitted {
			if extra := n - committed[k]; extra > 0 {
				residue += extra
			}
		}
		if residue > 0 && in.Isolation == wire.ReadUncommitted {
			v.note("txn: partition %d: %d aborted/in-flight records visible at read_uncommitted (configuration-expected)", p, residue)
		}
	}

	// 6. Completion.
	if !in.Completed {
		if in.Plan.HasBrokerFaults() || in.Plan.HasProcessorFaults() {
			v.note("txn: pipeline did not finish within the horizon (faults in plan)")
		} else {
			v.fail("txn: pipeline did not finish with no faults in plan")
		}
	}
	return v
}
