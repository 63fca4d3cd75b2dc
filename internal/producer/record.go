package producer

import (
	"fmt"
	"time"
)

// State is a message's position in the Fig. 2 state diagram.
type State int

// Message states.
const (
	StateReady State = iota + 1
	StateDelivered
	StateLost
	StateDuplicated
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateDelivered:
		return "delivered"
	case StateLost:
		return "lost"
	case StateDuplicated:
		return "duplicated"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Case is the Table I transition sequence a message followed, as
// observable from the producer. Case 5 (duplicate) is generally only
// distinguishable from Case 4 at the consumer; the testbed reconciles.
type Case int

// Table I cases. CaseUnresolved marks in-progress messages.
const (
	CaseUnresolved Case = iota
	Case1               // delivered on the initial send
	Case2               // lost on the initial send, no retry succeeded before it was ever sent
	Case3               // lost after retries were exhausted or timed out
	Case4               // delivered by a retry
	Case5               // delivered more than once (retry duplicated it)
)

// String implements fmt.Stringer.
func (c Case) String() string {
	if c == CaseUnresolved {
		return "unresolved"
	}
	return fmt.Sprintf("case%d", int(c))
}

// record tracks one message through the producer.
type record struct {
	key      uint64
	payload  []byte
	arrived  time.Duration // when the message arrived at the producer
	deadline time.Duration // arrived + MessageTimeout
	attempts int
	state    State
	caseNum  Case
	resolved time.Duration // when the record reached a terminal state
}

// Outcome is the terminal result of one message, exported for
// reconciliation and analysis.
type Outcome struct {
	Key      uint64
	State    State
	Case     Case
	Attempts int
	// Latency is T_p: arrival at the producer to resolution. For lost
	// messages it is the time until the producer gave up.
	Latency time.Duration
}

// Counts aggregates terminal states, the producer's own view of the
// Table I distribution. ByCase is indexed by Case (0 = CaseUnresolved,
// which stays zero for completed runs); a fixed array keeps Counts
// comparable and its iteration order deterministic, unlike a map.
type Counts struct {
	Total     uint64
	Delivered uint64
	Lost      uint64
	ByCase    [Case5 + 1]uint64
}

// Add sums o into c — the aggregate view of independent producers.
func (c *Counts) Add(o Counts) {
	c.Total += o.Total
	c.Delivered += o.Delivered
	c.Lost += o.Lost
	for i, n := range o.ByCase {
		c.ByCase[i] += n
	}
}

// CaseCount is one row of the Table I distribution.
type CaseCount struct {
	Case  Case
	Count uint64
	Share float64 // fraction of Total (0 when Total is 0)
}

// Cases returns the producer-observable Table I rows (Case 1-4) in
// order, with each case's share of the total. This is the single tally
// used by the figures package and the CLIs; Case 5 needs consumer-side
// reconciliation and is reported separately by the testbed.
func (c Counts) Cases() []CaseCount {
	rows := make([]CaseCount, 0, 4)
	for cs := Case1; cs <= Case4; cs++ {
		row := CaseCount{Case: cs, Count: c.ByCase[cs]}
		if c.Total > 0 {
			row.Share = float64(row.Count) / float64(c.Total)
		}
		rows = append(rows, row)
	}
	return rows
}
