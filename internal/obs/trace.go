package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Layer names used in the Event schema.
const (
	LayerDES       = "des"
	LayerNetem     = "netem"
	LayerTransport = "transport"
	LayerProducer  = "producer"
	LayerBroker    = "broker"
	LayerCluster   = "cluster"
)

// Event types. The schema is stable: renaming or renumbering a type is
// a breaking change for trace consumers.
//
// Record lifecycle (the Fig. 2 / Table I case transitions):
//
//	record_enqueue   key=record key       value=queue depth after enqueue
//	record_delivered key=record key       value=attempts  aux=case (1 or 4)
//	record_lost      key=record key       value=attempts  aux=case (2 or 3)
//	batch_send       key=batch sequence   value=records   aux=attempt (1-based)
//	batch_ack        key=batch sequence   value=records   aux=correlation id
//	request_timeout  key=batch sequence   value=correlation id
//	batch_retry      key=batch sequence   value=backoff ns aux=next attempt
//	batch_fail       key=batch sequence   value=records   aux=attempts used
//	batch_error      key=batch sequence   detail=error code
//
// Transport (detail carries the endpoint name, "client" or "server"):
//
//	segment_send       key=segment seq  value=payload bytes  aux=retries so far
//	segment_retransmit key=segment seq  value=payload bytes  aux=retry number
//	rto_backoff        value=new RTO ns  aux=consecutive backoffs
//	fast_retransmit    key=segment seq
//	cwnd_change        value=cwnd segments  aux=ssthresh segments
//	conn_broken        detail=error
//
// Broker and cluster:
//
//	append         key=batch base sequence  value=base offset  aux=broker id
//	duplicate_drop key=batch base sequence  value=original offset  aux=broker id
//	replicate      key=batch base sequence  value=partition  aux=follower id
//
// Network emulation:
//
//	pkt_loss     value=packet bytes (dropped by the loss model)
//	pkt_overflow value=packet bytes (dropped by the full device queue)
const (
	EvRecordEnqueue   = "record_enqueue"
	EvRecordDelivered = "record_delivered"
	EvRecordLost      = "record_lost"
	EvBatchSend       = "batch_send"
	EvBatchAck        = "batch_ack"
	EvRequestTimeout  = "request_timeout"
	EvBatchRetry      = "batch_retry"
	EvBatchFail       = "batch_fail"
	EvBatchError      = "batch_error"

	EvSegmentSend       = "segment_send"
	EvSegmentRetransmit = "segment_retransmit"
	EvRTOBackoff        = "rto_backoff"
	EvFastRetransmit    = "fast_retransmit"
	EvCwndChange        = "cwnd_change"
	EvConnBroken        = "conn_broken"

	EvAppend        = "append"
	EvDuplicateDrop = "duplicate_drop"
	EvReplicate     = "replicate"
	EvUncleanCrash  = "unclean_crash"

	EvPktLoss     = "pkt_loss"
	EvPktOverflow = "pkt_overflow"
)

// Event is one structured trace record. At is virtual time; Key, Value
// and Aux carry the per-type payload documented above.
type Event struct {
	At     time.Duration `json:"at_ns"`
	Layer  string        `json:"layer"`
	Type   string        `json:"type"`
	Key    uint64        `json:"key,omitempty"`
	Value  int64         `json:"value,omitempty"`
	Aux    int64         `json:"aux,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// Tracer records events into a bounded ring buffer and, when a sink is
// set, streams each event as one JSON line. The zero value is not
// usable; create with NewTracer. A nil *Tracer is the disabled tracer:
// Emit is a no-op.
//
// A tracer observes exactly one simulation: BindClock attaches the
// virtual clock when the run is assembled. Methods are mutex-guarded so
// a sink can be drained while a run is in flight, but one tracer must
// not be shared between concurrently running simulations (their virtual
// clocks would interleave meaninglessly).
type Tracer struct {
	mu      sync.Mutex
	clock   Clock
	ring    []Event
	start   int // oldest event
	count   int
	total   uint64
	enc     *json.Encoder
	sinkErr error
}

// DefaultTraceCapacity is the ring size when NewTracer gets cap <= 0.
const DefaultTraceCapacity = 4096

// NewTracer returns a tracer with a ring buffer of the given capacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// BindClock attaches the virtual clock events are stamped with. Events
// emitted with no clock bound carry At = 0.
func (t *Tracer) BindClock(c Clock) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = c
}

// SetSink streams every subsequent event to w as JSONL in addition to
// the ring. A write error disables the sink and is reported by Err.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if w == nil {
		t.enc = nil
		return
	}
	t.enc = json.NewEncoder(w)
}

// Emit records one event.
func (t *Tracer) Emit(layer, typ string, key uint64, value, aux int64, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := Event{Layer: layer, Type: typ, Key: key, Value: value, Aux: aux, Detail: detail}
	if t.clock != nil {
		ev.At = t.clock.Now()
	}
	i := t.start + t.count
	if t.count == len(t.ring) {
		// Ring full: evict the oldest.
		i = t.start
		t.start = (t.start + 1) % len(t.ring)
	} else {
		t.count++
	}
	t.ring[i%len(t.ring)] = ev
	t.total++
	if t.enc != nil {
		if err := t.enc.Encode(ev); err != nil {
			t.sinkErr = err
			t.enc = nil
		}
	}
}

// Events returns the buffered events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.count)
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(t.start+i)%len(t.ring)])
	}
	return out
}

// Total returns how many events were emitted over the tracer's
// lifetime, including any evicted from the ring.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Err reports the first sink write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

// chainTypes are the event types that form a batch's delivery chain.
var chainTypes = map[string]bool{
	EvBatchSend:      true,
	EvBatchAck:       true,
	EvRequestTimeout: true,
	EvBatchRetry:     true,
	EvBatchFail:      true,
	EvBatchError:     true,
	EvAppend:         true,
	EvDuplicateDrop:  true,
}

// DuplicateChains extracts, per batch sequence, the event chains of
// batches that were appended more than once by the same broker — the
// Fig. 8 Case-5 mechanism (send → RTO-inflated response → retry →
// duplicate append). Follower appends from replication do not count:
// a duplicate requires the same broker to append the same batch
// sequence at least twice. Chains are returned in order of their first
// event; events within a chain keep emission order.
func DuplicateChains(events []Event) [][]Event {
	type brokerKey struct {
		seq    uint64
		broker int64
	}
	appends := make(map[brokerKey]int)
	dup := make(map[uint64]bool)
	for _, ev := range events {
		if ev.Type != EvAppend && ev.Type != EvDuplicateDrop {
			continue
		}
		k := brokerKey{seq: ev.Key, broker: ev.Aux}
		appends[k]++
		// duplicate_drop means the broker recognised a retry of a
		// persisted batch (idempotent mode): that is a duplicate chain
		// too, just a suppressed one.
		if appends[k] >= 2 || ev.Type == EvDuplicateDrop {
			dup[ev.Key] = true
		}
	}
	if len(dup) == 0 {
		return nil
	}
	chains := make(map[uint64][]Event)
	for _, ev := range events {
		if dup[ev.Key] && chainTypes[ev.Type] {
			chains[ev.Key] = append(chains[ev.Key], ev)
		}
	}
	keys := make([]uint64, 0, len(chains))
	for k := range chains {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := chains[keys[i]][0], chains[keys[j]][0]
		if a.At != b.At {
			return a.At < b.At
		}
		return keys[i] < keys[j]
	})
	out := make([][]Event, 0, len(keys))
	for _, k := range keys {
		out = append(out, chains[k])
	}
	return out
}

// IsCompleteDuplicateChain reports whether a chain contains the full
// Fig. 8 causal sequence: an initial send, a spurious request timeout,
// a retry, and a second append (or an idempotent duplicate_drop).
func IsCompleteDuplicateChain(chain []Event) bool {
	var send, timeout, retry bool
	appendsByBroker := make(map[int64]int)
	dupDrop := false
	for _, ev := range chain {
		switch ev.Type {
		case EvBatchSend:
			send = true
		case EvRequestTimeout:
			timeout = true
		case EvBatchRetry:
			retry = true
		case EvAppend:
			appendsByBroker[ev.Aux]++
		case EvDuplicateDrop:
			dupDrop = true
		}
	}
	dupAppend := dupDrop
	for _, n := range appendsByBroker {
		if n >= 2 {
			dupAppend = true
		}
	}
	return send && timeout && retry && dupAppend
}
