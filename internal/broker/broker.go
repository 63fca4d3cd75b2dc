// Package broker implements a single Kafka-model broker node: it owns
// partition logs, services produce and fetch requests with a modelled
// service time, de-duplicates idempotent-producer batches, and can be
// stopped and restarted for failure-injection experiments (the paper's
// future-work scenario).
package broker

import (
	"fmt"
	"slices"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/obs"
	"kafkarel/internal/storage"
	"kafkarel/internal/wire"
)

// Config tunes a broker's durability and observability.
type Config struct {
	// FlushInterval is the fsync cadence (Kafka's log.flush.interval.ms):
	// appends become durable at the first append on or after each
	// interval boundary, together with a snapshot of the idempotent
	// producer state (Kafka persists producer-state snapshots alongside
	// segment flushes). An unclean crash loses the unflushed log tail.
	// Zero (the default) makes every append immediately durable, so an
	// unclean crash behaves exactly like a clean stop.
	FlushInterval time.Duration
	// Obs attaches the per-run observability bundle; the broker uses its
	// tracer. nil disables tracing for this broker (Stats always count).
	Obs *obs.Obs
}

// DefaultConfig is the zero Config: every append immediately durable,
// no observability.
func DefaultConfig() Config { return Config{} }

// The service time of persisting a batch reflects a warm page-cache append
// path: appendLatency fixed cost plus appendPerByte per payload byte
// (~1 GB/s of sequential write bandwidth).
const (
	appendLatency = 50 * time.Microsecond
	appendPerByte = time.Nanosecond
)

// producerState supports idempotent de-duplication per producer ID.
// recent is a ring of the last wire.SeqCacheSize appended batches: with
// pipelining (max-in-flight > 1) batches can arrive out of sequence
// order, so a batch is a duplicate only if its base sequence matches a
// remembered batch — a bare high-water comparison would drop (and
// falsely ack) a *new* batch that arrives after a later-sequence one.
// The fields are all values (fixed array), so a struct copy — a flush
// checkpoint, a crash restore, a catch-up from the leader — is deep. The
// ring's indices are bytes, packed beside epoch and seen, so a pid table
// entry fills a 288-byte allocation size class exactly.
type producerState struct {
	epoch         uint32
	seen          bool
	nRecent, head uint8
	lastSequence  uint64
	lastOffset    int64
	recent        [wire.SeqCacheSize]batchMeta
}

// lookup returns the base offset of a remembered batch.
func (st *producerState) lookup(seq uint64) (int64, bool) {
	for i := range int(st.nRecent) {
		if e := st.recent[(int(st.head)+i)%len(st.recent)]; e.Sequence == seq {
			return e.Offset, true
		}
	}
	return 0, false
}

// remember records an appended batch and advances the high-water.
func (st *producerState) remember(seq uint64, offset int64) {
	if int(st.nRecent) < len(st.recent) {
		st.recent[(int(st.head)+int(st.nRecent))%len(st.recent)] = batchMeta{seq, offset}
		st.nRecent++
	} else {
		st.recent[st.head] = batchMeta{seq, offset}
		st.head = uint8((int(st.head) + 1) % len(st.recent))
	}
	if !st.seen || seq > st.lastSequence {
		st.lastSequence = seq
		st.lastOffset = offset
	}
	st.seen = true
}

// batchMeta identifies one remembered batch for idempotent de-duplication.
type batchMeta struct {
	Sequence uint64
	Offset   int64
}

// pidTable is per-partition state keyed by producer id: its entries in
// pid order in one slice. A partition sees a handful of producers, so a
// lookup is a short scan, and copying a table — a flush checkpoint, a
// crash restore, a catch-up — is one append of values into the
// destination's storage, deep because every entry is a value. A pointer
// get or getOrAdd returns is good only until the next insert into the
// same table.
type pidTable[V any] []pidEntry[V]

type pidEntry[V any] struct {
	pid uint64
	v   V
}

// search returns the index of pid's entry, or where it would go.
func (t pidTable[V]) search(pid uint64) (int, bool) {
	i := 0
	for i < len(t) && t[i].pid < pid {
		i++
	}
	return i, i < len(t) && t[i].pid == pid
}

// get returns pid's entry, nil if absent.
func (t pidTable[V]) get(pid uint64) *V {
	if i, ok := t.search(pid); ok {
		return &t[i].v
	}
	return nil
}

// getOrAdd returns pid's entry, inserting a zero one if absent.
func (t *pidTable[V]) getOrAdd(pid uint64) *V {
	i, ok := t.search(pid)
	if !ok {
		*t = slices.Insert(*t, i, pidEntry[V]{pid: pid})
	}
	return &(*t)[i].v
}

// del removes pid's entry, if any.
func (t *pidTable[V]) del(pid uint64) {
	if i, ok := t.search(pid); ok {
		*t = slices.Delete(*t, i, i+1)
	}
}

// part is one topic partition hosted on this broker: its log plus
// the idempotent producer state, live and as of the last flush. Every
// field is held by value and its zero value is an empty partition, so a
// broker carves a topic's parts as one block (CreatePartitions).
type part struct {
	log  storage.Log
	prod pidTable[producerState]
	// flushedProd is the producer-state snapshot persisted with the last
	// flush. An unclean crash restores it: a stale snapshot must not
	// dedupe-and-ack a retry of a truncated batch, and a fresh one must
	// not re-append a batch that survived the crash.
	flushedProd pidTable[producerState]
	lastFlush   time.Duration // interval boundary of the last flush
	// txn is the live transaction view (ongoing/aborted ranges, control
	// offsets, producer epochs); flushedTxn is its snapshot as of the
	// last flush, restored together with flushedProd on unclean crashes
	// so the transaction view never describes truncated offsets.
	txn        txnState
	flushedTxn txnState
}

// Stats counts broker activity.
type Stats struct {
	ProduceRequests   uint64
	FetchRequests     uint64
	RecordsAppended   uint64
	DuplicatesDropped uint64
	// DuplicateAppends counts non-idempotent appends of a batch sequence
	// the broker had already persisted for the same producer/partition —
	// the Case-5 duplicates an idempotent broker would have dropped.
	// Purely observational: the records are appended either way.
	DuplicateAppends uint64
	// DuplicateRecords is the record total inside those duplicate
	// appends, the broker-side mirror of the consumer's extra copies.
	DuplicateRecords uint64
	// RecordsTruncated counts records destroyed by unclean crashes (the
	// unflushed log tail past the flushed offset).
	RecordsTruncated uint64
	// UncleanCrashes counts CrashUnclean invocations.
	UncleanCrashes uint64
}

// Broker is one node. It is driven by the shared simulator and is not
// safe for concurrent use.
type Broker struct {
	id  int32
	sim *des.Simulator
	cfg Config
	// topics indexes the hosted partitions by topic, then by partition
	// number (each walks them all). topics is a slice that
	// resolve scans, not a map: a broker hosts a handful of topics (the
	// data topic, __consumer_offsets, __transaction_state), appends
	// alternate between them, and comparing a few names is far cheaper
	// than hashing one on every fetch and append. newSet sizes it for four.
	topics []topicParts
	up     bool
	slow   float64 // service-time multiplier; <= 1 means nominal
	stats  Stats
	trace  *obs.Tracer

	// jobs recycles produce-service jobs. The brokers of one NewSet share
	// one list: a job names its broker, and the brokers run on one
	// simulation, each holding one or two jobs at a time.
	jobs         *des.FreeList[produceJob]
	fetchRecords []wire.Record // Fetch's scratch: every answer's records are copied out into it
}

// New creates a running broker with the given node ID.
func New(id int32, sim *des.Simulator, cfg Config) (*Broker, error) {
	bs, err := newSet(id, 1, sim, cfg)
	if err != nil {
		return nil, err
	}
	return bs[0], nil
}

// NewSet creates n running brokers with node IDs 0 to n-1, as a cluster
// does: they are allocated as one block and share one produce-job free
// list.
func NewSet(n int, sim *des.Simulator, cfg Config) ([]*Broker, error) {
	return newSet(0, n, sim, cfg)
}

func newSet(first int32, n int, sim *des.Simulator, cfg Config) ([]*Broker, error) {
	if sim == nil {
		return nil, fmt.Errorf("broker: nil simulator")
	}
	if cfg.FlushInterval < 0 {
		return nil, fmt.Errorf("broker: negative flush interval")
	}
	const topics = 4
	jobs := new(des.FreeList[produceJob])
	block := make([]Broker, n)
	tps := make([]topicParts, n*topics)
	bs := make([]*Broker, n)
	for i := range block {
		block[i] = Broker{
			id:     first + int32(i),
			sim:    sim,
			cfg:    cfg,
			topics: tps[i*topics : i*topics : (i+1)*topics],
			up:     true,
			trace:  cfg.Obs.Tracer(),
			jobs:   jobs,
		}
		bs[i] = &block[i]
	}
	return bs, nil
}

// ID returns the broker's node ID.
func (b *Broker) ID() int32 { return b.id }

// Up reports whether the broker is serving requests.
func (b *Broker) Up() bool { return b.up }

// Stop shuts the broker down cleanly: pending log tails are flushed (a
// graceful Kafka shutdown fsyncs on close), then the broker silently
// drops all requests, as a dead node does from the network's view.
func (b *Broker) Stop() {
	b.up = false
	if b.cfg.FlushInterval > 0 {
		b.each(func(p *part) { b.flushPart(p, b.boundary(b.sim.Now())) })
	}
}

// CrashUnclean kills the broker without the shutdown fsync: the log tail
// past each partition's flushed offset is destroyed and the idempotent
// producer state rolls back to the snapshot persisted with that flush.
// With FlushInterval zero everything is always durable and CrashUnclean
// degenerates to Stop — the acks=1 data-loss window only opens when the
// broker is configured with a real flush cadence.
func (b *Broker) CrashUnclean() {
	b.up = false
	b.stats.UncleanCrashes++
	if b.cfg.FlushInterval <= 0 {
		return
	}
	var lost uint64
	now := b.sim.Now()
	b.each(func(p *part) {
		// A flush boundary crossed since the last append is still honoured:
		// everything currently stored was appended before it.
		if bd := b.boundary(now); bd > p.lastFlush {
			b.flushPart(p, bd)
		}
		if tail := p.log.End() - p.log.Flushed(); tail > 0 {
			p.log.TruncateTo(p.log.Flushed())
			lost += uint64(tail)
		}
		p.prod = append(p.prod[:0], p.flushedProd...)
		p.txn.copyFrom(&p.flushedTxn)
	})
	b.stats.RecordsTruncated += lost
	b.trace.Emit(obs.LayerBroker, obs.EvUncleanCrash, lost, 0, int64(b.id), "")
}

// Start brings a stopped broker back. Its logs are retained, as Kafka's
// are across restarts.
func (b *Broker) Start() { b.up = true }

// SetSlowdown scales the broker's append service time by factor — the
// chaos engine's degraded-broker fault. Factors at or below 1 restore
// nominal speed.
func (b *Broker) SetSlowdown(factor float64) { b.slow = factor }

// Stats returns an activity snapshot.
func (b *Broker) Stats() Stats { return b.stats }

// CreatePartition provisions an empty log for the topic partition.
// Creating an existing partition is a no-op.
func (b *Broker) CreatePartition(topic string, partition int32) {
	b.CreatePartitions(topic, partition)
}

// CreatePartitions provisions empty logs for the topic's partitions, the
// new ones carved from one block: a replica costs no allocation of its
// own. Negative and existing partitions are skipped.
func (b *Broker) CreatePartitions(topic string, partitions ...int32) {
	tp := b.topic(topic)
	if tp == nil {
		b.topics = append(b.topics, topicParts{name: topic})
		tp = &b.topics[len(b.topics)-1]
	}
	fresh, n := 0, len(tp.parts)
	for _, pn := range partitions {
		if pn >= 0 && (int(pn) >= len(tp.parts) || tp.parts[pn] == nil) {
			fresh++
			n = max(n, int(pn)+1)
		}
	}
	if fresh == 0 {
		return
	}
	if n > len(tp.parts) {
		tp.parts = append(tp.parts, make([]*part, n-len(tp.parts))...)
	}
	block := make([]part, fresh)
	for _, pn := range partitions {
		if pn < 0 || tp.parts[pn] != nil {
			continue
		}
		tp.parts[pn], block = &block[0], block[1:]
	}
}

// each calls fn for every hosted partition.
func (b *Broker) each(fn func(*part)) {
	for i := range b.topics {
		for _, p := range b.topics[i].parts {
			if p != nil {
				fn(p)
			}
		}
	}
}

// topicParts is one hosted topic's partitions by partition number, nil
// where this broker holds no replica.
type topicParts struct {
	name  string
	parts []*part
}

// topic finds a hosted topic, nil if absent. The pointer is into b.topics
// and is good until the next CreatePartition.
func (b *Broker) topic(name string) *topicParts {
	for i := range b.topics {
		if b.topics[i].name == name {
			return &b.topics[i]
		}
	}
	return nil
}

// resolve finds a topic partition hosted on this broker, nil if absent.
// Every request path (Append, HandleFetch, Log) resolves through here.
func (b *Broker) resolve(topic string, partition int32) *part {
	tp := b.topic(topic)
	if tp == nil || partition < 0 || int(partition) >= len(tp.parts) {
		return nil
	}
	return tp.parts[partition]
}

// Log exposes the partition log (nil if absent), used by replication and
// by the consumer-side reconciliation in tests.
func (b *Broker) Log(topic string, partition int32) *storage.Log {
	p := b.resolve(topic, partition)
	if p == nil {
		return nil
	}
	return &p.log
}

// CatchUpFrom makes this broker's replica of the topic partition a copy
// of leader's: the log catches up by reference (storage.Log.CatchUp), the
// leader's seen producer-sequence states and transaction view are copied
// into the replica's own tables, and the result is flushed — the
// replica's log now mirrors the leader's, so its dedupe state and
// durability checkpoint must too. Without the producer states a retry routed here after a later
// leadership change could re-append a batch the cluster already
// acknowledged (Kafka rebuilds them from the replicated log); without the
// transaction view, which the by-reference copy carries no batch headers
// to rebuild, read_committed fetches would see aborted records. It does
// nothing when either broker holds no replica or leader is b.
func (b *Broker) CatchUpFrom(leader *Broker, topic string, partition int32) error {
	p, lp := b.resolve(topic, partition), leader.resolve(topic, partition)
	if p == nil || lp == nil || p == lp {
		return nil
	}
	if err := p.log.CatchUp(&lp.log); err != nil {
		return err
	}
	p.prod = p.prod[:0]
	for i := range lp.prod {
		if lp.prod[i].v.seen {
			p.prod = append(p.prod, lp.prod[i])
		}
	}
	p.txn.copyFrom(&lp.txn)
	b.flushPart(p, b.boundary(b.sim.Now()))
	return nil
}

// boundary returns the latest flush-interval boundary at or before t.
func (b *Broker) boundary(t time.Duration) time.Duration {
	iv := b.cfg.FlushInterval
	if iv <= 0 {
		return t
	}
	return t - t%iv
}

// flushPart persists the partition: fsync the log and checkpoint the
// producer and transaction state, stamped with the given interval
// boundary. The checkpoint is written into the last one's storage and
// holds values only: it never aliases live state, and CrashUnclean
// restores from it by copy.
func (b *Broker) flushPart(p *part, bd time.Duration) {
	p.log.Flush()
	p.flushedProd = append(p.flushedProd[:0], p.prod...)
	p.flushedTxn.copyFrom(&p.txn)
	p.lastFlush = bd
}

// maybeFlush runs the lazy flush schedule: the first append on or after
// an interval boundary first persists the pre-append state, which is
// equivalent to an fsync timer firing at the boundary itself (everything
// stored now was appended before it) without keeping a perpetual ticker
// in the event queue.
func (b *Broker) maybeFlush(p *part) {
	if b.cfg.FlushInterval <= 0 {
		return
	}
	if bd := b.boundary(b.sim.Now()); bd > p.lastFlush {
		b.flushPart(p, bd)
	}
}

// serviceTime returns the simulated cost of persisting a batch.
func (b *Broker) serviceTime(batch wire.RecordBatch) time.Duration {
	bytes := 0
	for _, r := range batch.Records {
		bytes += r.EncodedSize()
	}
	d := appendLatency + time.Duration(bytes)*appendPerByte
	if b.slow > 1 {
		d = time.Duration(float64(d) * b.slow)
	}
	return d
}

// Append is the synchronous core of produce handling: idempotency check,
// then log append. It returns the base offset, whether the batch was a
// duplicate, and an error code.
func (b *Broker) Append(topic string, partition int32, batch wire.RecordBatch, idempotent bool) (int64, bool, wire.ErrorCode) {
	p := b.resolve(topic, partition)
	if p == nil {
		return 0, false, wire.ErrUnknownTopicOrPartition
	}
	// Flush schedule first: a crossed boundary persists the pre-append
	// state, never the batch being appended now.
	b.maybeFlush(p)
	if batch.Transactional || batch.Control {
		// Zombie fencing: a batch from a superseded producer epoch is
		// rejected outright, before any dedupe or append — the fenced
		// producer must never place another record in the log.
		if p.txn.fence(batch.ProducerID, batch.ProducerEpoch) {
			return 0, false, wire.ErrProducerFenced
		}
	}
	if batch.Control {
		// Transaction marker: append the control record and close the
		// producer's ongoing range. Markers bypass idempotent dedupe —
		// the coordinator may re-drive them, and applyMarker makes the
		// replay a no-op on the transaction view.
		base := b.appendLog(p, topic, &batch)
		commit := len(batch.Records) > 0 && batch.Records[0].Key == wire.ControlKeyCommit
		p.txn.applyMarker(batch.ProducerID, base, commit)
		return base, false, wire.ErrNone
	}
	if idempotent {
		// st points into p.prod: nothing below inserts into that table.
		st := p.prod.getOrAdd(batch.ProducerID)
		if batch.ProducerEpoch > st.epoch {
			// A bumped epoch starts a fresh sequence space (Kafka resets
			// producer sequence tracking on epoch bump): the previous
			// incarnation's ring must not dedupe the new incarnation's
			// batches, whose sequences restart from the beginning.
			*st = producerState{epoch: batch.ProducerEpoch}
		}
		if offset, ok := st.lookup(batch.BaseSequence); ok {
			// Retry of an already-persisted batch: report the original
			// offset and succeed without appending (Kafka's idempotent
			// producer semantics).
			b.stats.DuplicatesDropped++
			b.trace.Emit(obs.LayerBroker, obs.EvDuplicateDrop, batch.BaseSequence, offset, int64(b.id), topic)
			return offset, true, wire.ErrNone
		}
		base := b.appendLog(p, topic, &batch)
		st.remember(batch.BaseSequence, base)
		if batch.Transactional {
			p.txn.extend(batch.ProducerID, base, len(batch.Records))
		}
		return base, false, wire.ErrNone
	}
	base := b.appendLog(p, topic, &batch)
	if batch.Transactional {
		p.txn.extend(batch.ProducerID, base, len(batch.Records))
	}
	// Track the per-producer sequence high-water even without idempotence
	// so duplicate appends (the Case-5 mechanism) are observable: batch
	// sequences are monotone per producer and retries pin their
	// partition, so a sequence at or below the high-water is a retry of a
	// batch this broker already appended.
	st := p.prod.getOrAdd(batch.ProducerID)
	if st.seen && batch.BaseSequence <= st.lastSequence {
		b.stats.DuplicateAppends++
		b.stats.DuplicateRecords += uint64(len(batch.Records))
	} else {
		st.seen = true
		st.lastSequence = batch.BaseSequence
		st.lastOffset = base
	}
	return base, false, wire.ErrNone
}

// appendLog appends the batch's records to p's log, counting and tracing
// the append, and returns the base offset.
func (b *Broker) appendLog(p *part, topic string, batch *wire.RecordBatch) int64 {
	base := p.log.Append(batch.Records)
	b.stats.RecordsAppended += uint64(len(batch.Records))
	b.trace.Emit(obs.LayerBroker, obs.EvAppend, batch.BaseSequence, base, int64(b.id), topic)
	return base
}

// produceJob parks one produce request across the append service time.
// Jobs are recycled through Broker.jobs, so the steady-state produce
// path schedules no per-request closures or events.
type produceJob struct {
	b          *Broker
	req        wire.ProduceRequest
	idempotent bool
	done       func(arg any, resp wire.ProduceResponse)
	arg        any
}

func (b *Broker) getJob() *produceJob {
	j := b.jobs.Get()
	j.b = b
	return j
}

func (b *Broker) putJob(j *produceJob) {
	j.req = wire.ProduceRequest{}
	j.done, j.arg = nil, nil
	b.jobs.Put(j)
}

// Produce services a produce request after the append service time and
// calls done(arg, resp) with the outcome; for acks=0 requests done is
// invoked anyway so callers can observe the outcome, but a network
// server must not transmit it. A broker that is down at call time or at
// service-completion time never calls done.
//
// done and arg replace a per-request closure: callers pass a stable
// function plus a context value, keeping the hot path allocation-free.
// The request (batch records included) is retained until the service
// time elapses and the partition log then takes ownership of the records
// — headers and payload bytes (see storage.Log.Append) — so they must
// never change after the call.
func (b *Broker) Produce(req wire.ProduceRequest, idempotent bool, done func(arg any, resp wire.ProduceResponse), arg any) {
	if !b.up {
		return
	}
	b.stats.ProduceRequests++
	j := b.getJob()
	j.req, j.idempotent, j.done, j.arg = req, idempotent, done, arg
	b.sim.AfterFunc(b.serviceTime(req.Batch), produceFire, j)
}

// produceFire completes a produce job at service time. The job is
// recycled before the callback runs so a callback that produces again
// can reuse it.
func produceFire(a any) {
	j := a.(*produceJob)
	b := j.b
	req, idempotent, done, arg := j.req, j.idempotent, j.done, j.arg
	b.putJob(j)
	if !b.up {
		return
	}
	base, _, code := b.Append(req.Topic, req.Partition, req.Batch, idempotent)
	if done != nil {
		done(arg, wire.ProduceResponse{
			CorrelationID: req.CorrelationID,
			Topic:         req.Topic,
			Partition:     req.Partition,
			BaseOffset:    base,
			Err:           code,
		})
	}
}

// Partition is a handle to one topic partition hosted on this broker,
// resolved once (Broker.Partition) so a reader that returns to the same
// partition every few milliseconds does not pay a topic-name lookup each
// time. The handle is good for the broker's life — a hosted partition is
// never dropped or moved — and caches nothing about the log: every method
// reads the log and the transaction view as they are now (an unclean
// crash and a catch-up both rewrite the transaction view).
type Partition struct {
	b *Broker
	p *part
}

// Partition returns the handle of a hosted partition; ok is false when
// this broker holds no replica of it.
func (b *Broker) Partition(topic string, partition int32) (h Partition, ok bool) {
	p := b.resolve(topic, partition)
	return Partition{b: b, p: p}, p != nil
}

// Up reports whether the hosting broker is serving requests.
func (h Partition) Up() bool { return h.b.up }

// End returns the partition's log end offset.
func (h Partition) End() int64 { return h.p.log.End() }

// LastStable returns the partition's last stable offset.
func (h Partition) LastStable() int64 { return h.p.txn.lso(h.p.log.End()) }

// HandleFetch services a fetch request immediately (fetch cost is
// dominated by the network in the experiments): it resolves the
// partition and hands the request to Partition.Fetch, which documents
// the response.
func (b *Broker) HandleFetch(req wire.FetchRequest, done func(wire.FetchResponse)) {
	if h, ok := b.Partition(req.Topic, req.Partition); ok {
		h.Fetch(req, done)
		return
	}
	if !b.up || done == nil {
		return
	}
	b.stats.FetchRequests++
	done(wire.FetchResponse{
		CorrelationID: req.CorrelationID,
		Topic:         req.Topic,
		Partition:     req.Partition,
		NextOffset:    req.Offset,
		Err:           wire.ErrUnknownTopicOrPartition,
	})
}

// FetchIsNoOp reports whether a fetch at pos, by a reader that already
// holds high watermark hwm, is the one whose answer is known without
// asking: Fetch would call back with ErrNone, no records, NextOffset ==
// pos and HighWatermark == hwm, so the reader learns nothing and moves
// nowhere. That is the case when the broker is up, nothing was appended
// or truncated since the reader saw hwm, and pos sits where data would
// arrive next: at the log end, or — at read_committed — at or past the
// last stable offset, parked behind an open transaction. Everything else
// (broker down, hwm stale in either direction, data or a filtered run at
// pos, pos out of range) is false, and the reader must ask. A reader that
// skips the request on true accounts for it with CountFetch.
//
// It mirrors Fetch top to bottom and holds no state of its own, so there
// is nothing to invalidate: the answer is computed from the log as it is.
func (h Partition) FetchIsNoOp(pos, hwm int64, iso wire.IsolationLevel) bool {
	end := h.p.log.End()
	if !h.b.up || hwm != end || pos > end {
		return false
	}
	return pos == end || (iso == wire.ReadCommitted && pos >= h.p.txn.lso(end))
}

// CountFetch records a fetch that was answered without being issued: the
// reader established FetchIsNoOp and skipped the call. It is a simulated
// fetch all the same, so Stats.FetchRequests counts it.
func (h Partition) CountFetch() { h.b.stats.FetchRequests++ }

// Fetch services a fetch of this partition; req's topic and partition
// are only echoed into the response. A broker that is down never calls
// done.
//
// Isolation semantics: read_committed fetches are bounded by the last
// stable offset and never see records from aborted transactions;
// control markers are hidden at both levels. The returned records are
// always contiguous starting exactly at req.Offset — a fetch positioned
// on a filtered record returns no data and instead advances NextOffset
// past the whole filtered run, so readers keep per-record offsets as
// req.Offset+i and resume from NextOffset.
//
// The response's Records slice is broker scratch, valid only inside done:
// the records are copied out of the log (storage.Log.CopyOut) into one
// slice the next Fetch on this broker reuses, so consume or copy them
// before done returns. The record payloads are immutable and stay valid
// for the life of the log.
func (h Partition) Fetch(req wire.FetchRequest, done func(wire.FetchResponse)) {
	b := h.b
	if !b.up || done == nil {
		return
	}
	b.stats.FetchRequests++
	resp := wire.FetchResponse{
		CorrelationID: req.CorrelationID,
		Topic:         req.Topic,
		Partition:     req.Partition,
		NextOffset:    req.Offset,
	}
	log := &h.p.log
	ts := &h.p.txn
	resp.HighWatermark = log.End()
	lso := ts.lso(log.End())
	resp.LastStable = lso
	if req.Offset < 0 || req.Offset > log.End() {
		resp.Err = wire.ErrRequestTimedOut // offset out of range maps to a generic retriable error here
		done(resp)
		return
	}
	limit := log.End()
	if req.Isolation == wire.ReadCommitted && lso < limit {
		limit = lso
	}
	pos := req.Offset
	for pos < limit && ts.filtered(pos, req.Isolation) {
		pos++
	}
	if pos > req.Offset {
		// Filtered run at the fetch position: no data, just a new start.
		resp.NextOffset = pos
		done(resp)
		return
	}
	max := int(req.MaxRecords)
	if avail := int(limit - pos); max > avail {
		max = avail
	}
	if max <= 0 {
		done(resp)
		return
	}
	// Cut at the first filtered offset and copy the window out.
	max = int(ts.firstFiltered(pos, pos+int64(max), req.Isolation) - pos)
	recs, err := log.CopyOut(b.fetchRecords[:0], pos, max)
	b.fetchRecords = recs
	if err != nil {
		resp.Err = wire.ErrRequestTimedOut
		done(resp)
		return
	}
	resp.Records = recs
	next := pos + int64(len(recs))
	for next < limit && ts.filtered(next, req.Isolation) {
		next++
	}
	resp.NextOffset = next
	done(resp)
}
