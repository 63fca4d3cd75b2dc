// Package producer implements the Kafka producer model at the heart of
// the paper: a record accumulator with batching (B), a polling intake
// (δ), a per-message delivery budget (T_o) with retries (τ_r), and the
// at-most-once / at-least-once / exactly-once delivery semantics, all
// driving the Fig. 2 message state machine whose Case 1-5 outcomes define
// the reliability metrics P_l and P_d.
package producer

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/obs"
	"kafkarel/internal/stats"
	"kafkarel/internal/transport"
	"kafkarel/internal/wire"
)

// Source supplies the upstream application's messages. Next returns the
// next payload, or ok=false when the stream is exhausted.
type Source interface {
	Next() ([]byte, bool)
}

// batch groups records that travel in one produce request. Retries
// resend the batch unchanged with its original sequence number, which is
// what lets an idempotent broker de-duplicate (Kafka retries whole
// batches the same way).
type batch struct {
	records  []*record
	seq      uint64
	attempts int
	// lastBackoff is the batch's previous retry sleep, the anchor of the
	// decorrelated-jitter walk when RetryBackoffMax is set.
	lastBackoff time.Duration
}

// minDeadline returns the earliest delivery deadline in the batch.
func (b *batch) minDeadline() time.Duration {
	min := b.records[0].deadline
	for _, r := range b.records[1:] {
		if r.deadline < min {
			min = r.deadline
		}
	}
	return min
}

// request tracks one in-flight produce request. Requests are pooled on
// the producer: the timeout timer is created once per pooled request and
// re-armed on reuse, with its callback reading the current correlation
// ID from the request rather than capturing it.
type request struct {
	p     *Producer
	batch *batch
	corr  uint32
	timer *des.Timer
}

// batchJob parks a batch across an asynchronous gap — its serialisation
// delay or its retry backoff. Jobs are pooled on the producer so neither
// path allocates a closure per batch. A job rather than a field on the
// producer is required for serialisation: draining the source can
// re-enter kickSender from inside collectRecords, leaving two
// serialisations pending at once.
type batchJob struct {
	p *Producer
	b *batch
}

// Stats counts the producer's send-path activity. Records enqueued are
// Acquired, and their outcomes are Counts.
type Stats struct {
	BatchesSent     uint64 // batch sends, retries included
	BatchRetries    uint64 // batch sends beyond a batch's first attempt
	RequestTimeouts uint64 // produce requests that timed out unanswered
	// ProduceErrors counts failed produce responses by wire error code
	// (index 0, ErrNone, stays zero).
	ProduceErrors [wire.NumErrorCodes]uint64
}

// Producer drives messages from a Source into the cluster over a
// transport connection. Create with New; run by starting the simulator.
type Producer struct {
	sim    *des.Simulator
	cfg    Config
	costs  CostModel
	conn   *transport.Conn
	source Source

	nextKey   uint64
	queue     deque
	inFlight  map[uint32]*request
	corr      uint32
	splitter  wire.Splitter
	batchSeq  uint64
	stats     Stats
	outcomes  []Outcome
	counts    Counts
	latency   stats.Summary
	staleOver time.Duration // timeliness S; deliveries slower than this are stale
	stale     uint64

	senderBusy     bool
	lingerArmed    bool
	sendRetryArmed bool
	unsent         []*batch // serialised batches blocked on the socket
	retryPending   int      // records waiting out a retry backoff
	retryBatches   int      // batches waiting out a retry backoff
	retryRand      *rand.Rand
	reconnecting   bool
	intakeDone     bool
	intakePaused   bool
	finished       bool
	onComplete     func()

	// Observability (nil-safe handles; see internal/obs).
	hQueueDepth *obs.Histogram
	hSpanSend   *obs.Histogram
	hSpanAck    *obs.Histogram
	trace       *obs.Tracer

	// Hot-path scratch and free lists. The producer is single-threaded
	// (one simulator drives it), so nothing here is locked; event callbacks
	// are package-level functions scheduled with des.AfterFunc, and the
	// fields below park their state between arming and firing.
	intakePayload []byte        // payload between source.Next and the intake event
	frameBuf      []byte        // reused framed-request encoding (Conn.Send copies it)
	encRecords    []wire.Record // reused wire-record scratch for buildRequest
	decoder       wire.Decoder  // reused response decoding (topic interning)
	reqs          des.FreeList[request]
	batches       des.FreeList[batch]
	recs          des.FreeList[record]
	jobs          des.FreeList[batchJob]
}

// Event callbacks, scheduled via des.AfterFunc with the producer (or a
// pooled job) as argument so that arming one allocates nothing.

func intakeArrive(a any) { a.(*Producer).intakeArrived() }

func serialDone(a any) {
	j := a.(*batchJob)
	p, b := j.p, j.b
	p.putJob(j)
	p.senderBusy = false
	p.trySend(b)
}

func lingerFire(a any) {
	p := a.(*Producer)
	p.lingerArmed = false
	p.kickSender()
}

func sendRetryFire(a any) {
	p := a.(*Producer)
	p.sendRetryArmed = false
	p.flushUnsent()
	p.kickSender()
}

func retryFire(a any) {
	j := a.(*batchJob)
	p, b := j.p, j.b
	p.putJob(j)
	p.retryPending -= len(b.records)
	p.retryBatches--
	p.trySend(b)
}

// --- free lists ----------------------------------------------------------
//
// Every pooled object has exactly one terminal sink (records: resolution;
// batches: the resolve loops and the empty-after-expiry path; requests:
// response, timeout, or broken socket), so a double put would require a
// double resolution, which the message state machine already forbids.

func (p *Producer) getRecord() *record {
	r := p.recs.Get()
	*r = record{}
	return r
}

func (p *Producer) putBatch(b *batch) {
	for i := range b.records {
		b.records[i] = nil
	}
	b.records = b.records[:0]
	b.seq, b.attempts, b.lastBackoff = 0, 0, 0
	p.batches.Put(b)
}

func (p *Producer) getRequest() *request {
	rq := p.reqs.Get()
	if rq.timer == nil {
		rq.p = p
		rq.timer = des.NewTimer(p.sim, func() { rq.p.onRequestTimeout(rq.corr) })
	}
	return rq
}

func (p *Producer) putRequest(rq *request) {
	rq.timer.Stop()
	rq.batch = nil
	p.reqs.Put(rq)
}

func (p *Producer) getJob(b *batch) *batchJob {
	j := p.jobs.Get()
	j.p, j.b = p, b
	return j
}

func (p *Producer) putJob(j *batchJob) {
	j.b = nil
	p.jobs.Put(j)
}

// Option customises a Producer.
type Option func(*Producer)

// WithCompletion registers fn to run once when every source message has
// reached a terminal state.
func WithCompletion(fn func()) Option {
	return func(p *Producer) { p.onComplete = fn }
}

// WithTimeliness sets the message validity S (feature (b)); deliveries
// with latency above it are counted stale.
func WithTimeliness(s time.Duration) Option {
	return func(p *Producer) { p.staleOver = s }
}

// WithOutcomeLog enables per-record outcome recording (memory-heavy for
// large experiments; aggregates are always kept), with room for capacity
// outcomes before the log grows: one per record the source holds.
func WithOutcomeLog(capacity int) Option {
	return func(p *Producer) { p.outcomes = make([]Outcome, 0, capacity) }
}

// WithObs attaches the per-run observability bundle. Handles are
// resolved once here; a nil bundle leaves them nil, which disables the
// instrumentation at the cost of a nil check per site.
func WithObs(o *obs.Obs) Option {
	return func(p *Producer) {
		p.hQueueDepth = o.Histogram(obs.MQueueDepth, obs.QueueDepthBounds)
		p.hSpanSend = o.Histogram(obs.MSpanSend, obs.LatencyBounds)
		p.hSpanAck = o.Histogram(obs.MSpanAck, obs.LatencyBounds)
		p.trace = o.Tracer()
	}
}

// WithRetryRand installs the RNG that draws retry-backoff jitter when
// Config.RetryBackoffMax is set. Callers derive it from the run's seed
// so that parallel and sequential executions stay byte-identical.
func WithRetryRand(rng *rand.Rand) Option {
	return func(p *Producer) { p.retryRand = rng }
}

// New wires a producer to a source and a connection. The producer owns
// the client endpoint's receive path.
func New(sim *des.Simulator, cfg Config, costs CostModel, conn *transport.Conn, source Source, opts ...Option) (*Producer, error) {
	if sim == nil || costs == nil || conn == nil || source == nil {
		return nil, fmt.Errorf("producer: nil dependency")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim.DeclareDelay(sendRetryDelay)
	p := &Producer{
		sim:      sim,
		cfg:      cfg,
		costs:    costs,
		conn:     conn,
		source:   source,
		inFlight: make(map[uint32]*request),
	}
	for _, opt := range opts {
		opt(p)
	}
	p.decoder.Topic = cfg.Topic
	conn.Client.OnReceive(p.onBytes)
	conn.Client.OnBroken(p.onBroken)
	conn.OnReset(func() { p.splitter = wire.Splitter{} })
	return p, nil
}

// Start begins the intake loop. Call once before running the simulator.
func (p *Producer) Start() {
	p.scheduleIntake()
}

// Done reports whether every source message reached a terminal state.
func (p *Producer) Done() bool { return p.finished }

// Config returns the producer's current configuration.
func (p *Producer) Config() Config { return p.cfg }

// Reconfigure swaps the tunable parameters (semantics, batch size, poll
// interval, message timeout, retries, request timeout) at runtime — the
// paper's dynamic-configuration mechanism (Sec. V). Structural fields
// (topic, partitions, routing, key base, producer ID) cannot change.
// Records already in flight or queued keep the deadlines they were
// admitted with.
func (p *Producer) Reconfigure(cfg Config) error {
	cfg.Topic = p.cfg.Topic
	cfg.Partitions = p.cfg.Partitions
	cfg.Partitioner = p.cfg.Partitioner
	cfg.KeyBase = p.cfg.KeyBase
	cfg.ProducerID = p.cfg.ProducerID
	if err := cfg.Validate(); err != nil {
		return err
	}
	p.cfg = cfg
	p.resumeIntake()
	p.kickSender()
	return nil
}

// Counts returns the producer-view terminal-state aggregates.
func (p *Producer) Counts() Counts { return p.counts }

// Stats returns the producer's send-path counters.
func (p *Producer) Stats() Stats { return p.stats }

// Outcomes returns per-record outcomes when WithOutcomeLog was set.
func (p *Producer) Outcomes() []Outcome { return p.outcomes }

// Latency returns the delivery-latency summary in milliseconds (T_p of
// delivered messages).
func (p *Producer) Latency() stats.Summary { return p.latency }

// Stale returns how many delivered messages exceeded the timeliness S.
func (p *Producer) Stale() uint64 { return p.stale }

// Acquired returns how many source messages the producer has taken in so
// far; it is the ground-truth denominator when an experiment is cut off
// before the source drains.
func (p *Producer) Acquired() uint64 { return p.nextKey }

// Backlog returns the records waiting in the accumulator and the
// batches in flight: the producer's instantaneous state a timeline
// sampler reads.
func (p *Producer) Backlog() (queued, inFlight int) { return p.queue.len(), len(p.inFlight) }

// --- intake -------------------------------------------------------------

func (p *Producer) scheduleIntake() {
	if p.intakeDone || p.intakePaused {
		return
	}
	if p.backpressured() {
		p.intakePaused = true
		return
	}
	payload, ok := p.source.Next()
	if !ok {
		p.intakeDone = true
		p.kickSender() // flush a partial batch below BatchSize
		p.maybeComplete()
		return
	}
	cost := p.costs.IOTime(len(payload)) + p.cfg.PollInterval
	// At most one intake event is pending at a time (the loop reschedules
	// itself from the callback), so the payload can park on the producer.
	p.intakePayload = payload
	p.sim.AfterFunc(cost, intakeArrive, p)
}

// intakeArrived admits the parked payload as a queued record.
func (p *Producer) intakeArrived() {
	payload := p.intakePayload
	p.intakePayload = nil
	p.nextKey++
	now := p.sim.Now()
	r := p.getRecord()
	r.key = p.cfg.KeyBase + p.nextKey
	r.payload = payload
	r.arrived = now
	r.deadline = now + p.cfg.MessageTimeout
	r.state = StateReady
	p.queue.pushBack(r)
	p.hQueueDepth.Observe(int64(p.queue.len()))
	p.trace.Emit(obs.LayerProducer, obs.EvRecordEnqueue, r.key, int64(p.queue.len()), 0, "")
	p.kickSender()
	p.scheduleIntake()
}

// backpressured reports whether intake must pause. Only acknowledged
// semantics have the feedback channel that lets the client block the
// caller (Kafka's bounded buffer); fire-and-forget intake never pauses.
func (p *Producer) backpressured() bool {
	if p.cfg.Semantics == AtMostOnce {
		return false
	}
	return p.queue.len() >= p.cfg.QueueLimit
}

func (p *Producer) resumeIntake() {
	if p.intakePaused && !p.backpressured() {
		p.intakePaused = false
		p.scheduleIntake()
	}
}

// --- sender -------------------------------------------------------------

func (p *Producer) kickSender() {
	if p.senderBusy || p.finished || len(p.unsent) > 0 || p.reconnecting {
		return
	}
	// Batches waiting out a retry backoff hold their in-flight slot:
	// Kafka mutes a partition while one of its batches awaits a resend,
	// which is what makes max.in.flight=1 an ordering guarantee even
	// across retries.
	if p.cfg.Semantics != AtMostOnce && len(p.inFlight)+p.retryBatches >= p.cfg.MaxInFlight {
		return
	}
	b := p.batches.Get()
	b.records = p.collectRecords(b.records)
	if len(b.records) == 0 {
		p.putBatch(b)
		p.maybeComplete()
		return
	}
	p.batchSeq++
	b.seq = p.batchSeq
	// Serialisation occupies the send path for the per-record CPU cost.
	var serial time.Duration
	for _, r := range b.records {
		serial += p.costs.SerTime(len(r.payload))
	}
	p.senderBusy = true
	p.sim.AfterFunc(serial, serialDone, p.getJob(b))
}

// collectRecords pops expired records (resolving them lost) and then up
// to BatchSize ready records into dst, honouring the linger rule: a
// partial batch is only taken once its oldest record has lingered, or
// when no more input is coming. dst comes from a pooled batch so the
// steady state allocates nothing.
func (p *Producer) collectRecords(dst []*record) []*record {
	p.dropExpired()
	n := p.queue.len()
	if n == 0 {
		return dst
	}
	if n < p.cfg.BatchSize && !p.intakeDone {
		oldest := p.queue.peekFront()
		if p.sim.Now()-oldest.arrived < p.cfg.LingerTime {
			p.armLinger(oldest)
			return dst
		}
	}
	take := p.cfg.BatchSize
	if take > p.queue.len() {
		take = p.queue.len()
	}
	for i := 0; i < take; i++ {
		dst = append(dst, p.queue.popFront())
	}
	p.resumeIntake()
	return dst
}

func (p *Producer) armLinger(oldest *record) {
	if p.lingerArmed {
		return
	}
	p.lingerArmed = true
	wait := p.cfg.LingerTime - (p.sim.Now() - oldest.arrived)
	if wait < 0 {
		wait = 0
	}
	p.sim.AfterFunc(wait, lingerFire, p)
}

// dropExpired resolves queue-head records whose delivery budget elapsed
// while they waited — the paper's Figs. 5-6 loss mechanism.
func (p *Producer) dropExpired() {
	now := p.sim.Now()
	for {
		head := p.queue.peekFront()
		if head == nil || head.deadline > now {
			break
		}
		p.queue.popFront()
		p.resolveLost(head)
	}
	p.resumeIntake()
}

// trySend pushes a serialised batch towards the socket, queueing it when
// the socket has no room.
func (p *Producer) trySend(b *batch) {
	if p.sendNow(b) {
		p.flushUnsent()
		p.kickSender()
		return
	}
	p.unsent = append(p.unsent, b)
	if !p.reconnecting {
		p.armSendRetry()
	}
}

// sendNow attempts one socket write. It returns true when the batch is
// fully handled (written, or entirely expired) and false when the socket
// blocked it.
func (p *Producer) sendNow(b *batch) bool {
	if now := p.sim.Now(); b.minDeadline() <= now {
		if b.attempts == 0 {
			// First attempt: records that expired while serialised or
			// queued behind a stalled socket are dropped individually;
			// sending them would waste degraded bandwidth on dead messages.
			// The batch has not been exposed to the broker yet, so
			// shrinking it is safe.
			live := b.records[:0]
			for _, r := range b.records {
				if r.deadline <= now {
					p.resolveLost(r)
					continue
				}
				live = append(live, r)
			}
			b.records = live
		} else {
			// A retry whose budget ran out while blocked: the whole batch
			// fails together (Kafka expires batches, not records).
			for _, r := range b.records {
				p.resolveLost(r)
			}
			b.records = b.records[:0]
		}
	}
	if len(b.records) == 0 {
		p.putBatch(b)
		p.maybeComplete()
		return true
	}

	// Every attempt takes a correlation id, refused or not, so the ids on
	// the wire are those of a producer that built every attempt.
	p.corr++
	// The frame is sized from the batch and offered to the socket before
	// anything is built: on a stalled connection most attempts are refused,
	// and a refusal is then one comparison, not an encode, a CRC over every
	// payload and a copy (DESIGN.md §7 "A refused send does no work"). A
	// full buffer is socket backpressure — the records' deadlines keep
	// running, which is how a stalled TCP connection translates into
	// message loss; a broken socket is left to onBroken's reconnect flow,
	// which flushes the queue.
	payload := 0
	for _, r := range b.records {
		payload += len(r.payload)
	}
	size := wire.ProduceFrameSize(len(p.cfg.Topic), len(b.records), payload)
	if !p.conn.Client.Accepts(size) {
		if verifyRefused {
			p.checkRefused(b, size)
		}
		return false
	}
	frame := p.encodeFrame(b)
	if verifyRefused && len(frame) != size {
		panic(fmt.Sprintf("producer: batch %d (%d records, %d payload bytes) framed to %d bytes, sized as %d", b.seq, len(b.records), payload, len(frame), size))
	}
	if p.conn.Client.Send(frame) != nil {
		// Send decides with the same Accepts, so this takes a frame whose
		// size the formula got wrong, which race builds rule out above.
		return false
	}
	p.afterSend(p.corr, b)
	return true
}

// checkRefused builds and frames the attempt sendNow has just refused
// unbuilt, and panics unless the frame has the size the refusal was
// decided on and Send refuses it too. Race builds run it on every refused
// attempt (verifyRefused); it writes the encode scratch that ordinary
// builds leave untouched on a refusal, and nothing else.
func (p *Producer) checkRefused(b *batch, size int) {
	frame := p.encodeFrame(b)
	if len(frame) != size {
		panic(fmt.Sprintf("producer: refused batch %d (%d records) framed to %d bytes, sized as %d", b.seq, len(b.records), len(frame), size))
	}
	if p.conn.Client.Send(frame) == nil {
		panic(fmt.Sprintf("producer: batch %d (%d bytes) was refused unbuilt, but Send took it (%d bytes buffered)", b.seq, size, p.conn.Client.BufferedBytes()))
	}
}

// sendRetryDelay is how long a send the socket refused waits before the
// blocked batches are tried again.
const sendRetryDelay = 2 * time.Millisecond

func (p *Producer) armSendRetry() {
	if p.sendRetryArmed {
		return
	}
	p.sendRetryArmed = true
	p.sim.AfterFunc(sendRetryDelay, sendRetryFire, p)
}

// flushUnsent re-attempts blocked batches in order.
func (p *Producer) flushUnsent() {
	for len(p.unsent) > 0 {
		if !p.sendNow(p.unsent[0]) {
			if !p.reconnecting {
				p.armSendRetry()
			}
			return
		}
		// Pop by copying down: reslicing off the front would slide the
		// queue off its backing array and make trySend's next append
		// allocate. p.unsent is read afresh, not through a local taken
		// before sendNow: what sendNow resolves can call back into the
		// producer's owner.
		n := copy(p.unsent, p.unsent[1:])
		p.unsent[n] = nil
		p.unsent = p.unsent[:n]
	}
}

// fnv1a64 hashes a record key for keyed partitioning (FNV-1a over the
// key's 8 little-endian bytes) — fixed here, not hash/maphash, so the
// partition a key maps to is stable across runs and Go versions.
func fnv1a64(key uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= key & 0xff
		h *= prime64
		key >>= 8
	}
	return h
}

// encodeFrame builds the produce request of b's current attempt, under
// the correlation id sendNow took for it, and encodes it straight into
// the reused frame buffer (Send copies it).
func (p *Producer) encodeFrame(b *batch) []byte {
	req := p.buildRequest(b)
	p.frameBuf = wire.EndFrame(req.Encode(wire.StartFrame(p.frameBuf[:0], wire.APIProduce)))
	return p.frameBuf
}

func (p *Producer) buildRequest(b *batch) wire.ProduceRequest {
	// The producer id is stamped on every batch, not just idempotent
	// ones: brokers only dedup when the Idempotent flag is set, but the
	// id keeps per-producer sequence streams apart so the duplicate-
	// append observation stays sound when several producers share a
	// partition.
	wb := wire.RecordBatch{
		BaseSequence: b.seq,
		ProducerID:   p.cfg.ProducerID,
		Idempotent:   p.cfg.Semantics == ExactlyOnce,
	}
	// The wire records only live until the request is encoded, so they
	// are built in a reused scratch slice.
	recs := p.encRecords[:0]
	for _, r := range b.records {
		recs = append(recs, wire.Record{
			Key:       r.key,
			Timestamp: r.arrived,
			Payload:   r.payload,
		})
	}
	p.encRecords = recs
	wb.Records = recs
	acks := wire.AcksLeader
	switch p.cfg.Semantics {
	case AtMostOnce:
		acks = wire.AcksNone
	case ExactlyOnce:
		acks = wire.AcksAll
	}
	var partition int32
	if p.cfg.Partitions > 1 {
		// Pinned per batch so retries land on the same partition
		// (idempotent sequences are tracked per partition by the broker):
		// round-robin keys off the batch sequence, keyed routing hashes
		// the first record key, both stable across resends.
		switch p.cfg.Partitioner {
		case PartitionKeyed:
			partition = int32(fnv1a64(b.records[0].key) % uint64(p.cfg.Partitions))
		default:
			partition = int32(b.seq % uint64(p.cfg.Partitions))
		}
	}
	return wire.ProduceRequest{
		CorrelationID: p.corr,
		Topic:         p.cfg.Topic,
		Partition:     partition,
		Acks:          acks,
		Batch:         wb,
	}
}

func (p *Producer) afterSend(corr uint32, b *batch) {
	b.attempts++
	now := p.sim.Now()
	for _, r := range b.records {
		r.attempts++
		if r.attempts == 1 {
			// One span sample per record reaching the wire; retries of the
			// same record keep the first-send latency.
			p.hSpanSend.Observe(int64(now - r.arrived))
		}
	}
	p.stats.BatchesSent++
	if b.attempts > 1 {
		p.stats.BatchRetries++
	}
	p.trace.Emit(obs.LayerProducer, obs.EvBatchSend, b.seq, int64(len(b.records)), int64(b.attempts), "")
	if p.cfg.Semantics == AtMostOnce {
		// Fire-and-forget: handing bytes to the transport is success from
		// the producer's point of view (transition I of Fig. 2). Ground
		// truth is established by the consumer.
		for _, r := range b.records {
			p.resolveDelivered(r)
		}
		p.putBatch(b)
		p.maybeComplete()
		return
	}
	rq := p.getRequest()
	rq.batch, rq.corr = b, corr
	rq.timer.Reset(p.cfg.RequestTimeout)
	p.inFlight[corr] = rq
}

// --- responses and retries ----------------------------------------------

func (p *Producer) onBytes(chunk []byte) {
	frames, err := p.splitter.Push(chunk)
	if err != nil {
		p.splitter = wire.Splitter{}
		return
	}
	for _, f := range frames {
		if f.API != wire.APIProduce {
			continue
		}
		resp, err := p.decoder.ProduceResponse(f.Body)
		if err != nil {
			continue
		}
		p.onResponse(resp)
	}
}

func (p *Producer) onResponse(resp wire.ProduceResponse) {
	rq, ok := p.inFlight[resp.CorrelationID]
	if !ok {
		// Late response to a request already timed out: the records were
		// retried or failed; if they were also persisted by this earlier
		// attempt the consumer will observe the duplicate (Case 5).
		return
	}
	delete(p.inFlight, resp.CorrelationID)
	b := rq.batch
	p.putRequest(rq) // stops the timer; rq is detached before any reuse point
	if resp.Err == wire.ErrNone {
		p.trace.Emit(obs.LayerProducer, obs.EvBatchAck, b.seq, int64(len(b.records)), int64(resp.CorrelationID), "")
		for _, r := range b.records {
			p.resolveDelivered(r)
		}
		p.putBatch(b)
		p.maybeComplete()
		p.kickSender()
		return
	}
	if int(resp.Err) < len(p.stats.ProduceErrors) {
		p.stats.ProduceErrors[resp.Err]++
	}
	if resp.Err.Retriable() {
		p.retryOrFail(b)
		return
	}
	p.trace.Emit(obs.LayerProducer, obs.EvBatchError, b.seq, 0, int64(resp.Err), resp.Err.String())
	for _, r := range b.records {
		p.resolveLost(r)
	}
	p.putBatch(b)
	p.maybeComplete()
	p.kickSender()
}

func (p *Producer) onRequestTimeout(corr uint32) {
	rq, ok := p.inFlight[corr]
	if !ok {
		return
	}
	delete(p.inFlight, corr)
	p.stats.RequestTimeouts++
	p.trace.Emit(obs.LayerProducer, obs.EvRequestTimeout, rq.batch.seq, int64(corr), 0, "")
	b := rq.batch
	p.putRequest(rq)
	p.retryOrFail(b)
}

// nextBackoff returns the sleep before the batch's next retry. The
// default is the fixed RetryBackoff; with RetryBackoffMax set and a
// jitter RNG installed it performs a decorrelated-jitter walk —
// uniform in [base, 3·previous], capped — so synchronized retry storms
// spread out while short outages still retry quickly.
func (p *Producer) nextBackoff(b *batch) time.Duration {
	base := p.cfg.RetryBackoff
	if p.cfg.RetryBackoffMax <= 0 || p.retryRand == nil {
		return base
	}
	prev := b.lastBackoff
	if prev < base {
		prev = base
	}
	hi := 3 * prev
	if hi > p.cfg.RetryBackoffMax {
		hi = p.cfg.RetryBackoffMax
	}
	d := base
	if hi > base {
		d = base + time.Duration(p.retryRand.Int64N(int64(hi-base)+1))
	}
	b.lastBackoff = d
	return d
}

// retryOrFail resends the batch after the backoff if its retry budget
// and delivery deadline allow, and resolves it lost (Case 3) otherwise.
func (p *Producer) retryOrFail(b *batch) {
	now := p.sim.Now()
	retriesUsed := b.attempts - 1
	backoff := p.nextBackoff(b)
	if retriesUsed < p.cfg.effectiveRetries() && now+backoff < b.minDeadline() {
		p.trace.Emit(obs.LayerProducer, obs.EvBatchRetry, b.seq, int64(backoff), int64(b.attempts+1), "")
		p.retryPending += len(b.records)
		p.retryBatches++
		// The batch is muted while it waits (it sits in no other
		// structure), so its record count is stable until retryFire.
		p.sim.AfterFunc(backoff, retryFire, p.getJob(b))
		return
	}
	p.trace.Emit(obs.LayerProducer, obs.EvBatchFail, b.seq, int64(len(b.records)), int64(b.attempts), "")
	for _, r := range b.records {
		p.resolveLost(r)
	}
	p.putBatch(b)
	p.maybeComplete()
	p.kickSender()
}

func (p *Producer) onBroken(error) {
	if p.reconnecting {
		return
	}
	p.reconnecting = true
	// All in-flight requests are dead with the socket. They fail in send
	// order (ascending correlation id), not map order: each failure
	// schedules a retry, and with several requests in flight the order of
	// those events decides the rest of the run.
	pending := make([]*request, 0, len(p.inFlight))
	for _, rq := range p.inFlight {
		rq.timer.Stop()
		pending = append(pending, rq)
	}
	clear(p.inFlight)
	slices.SortFunc(pending, func(a, b *request) int { return cmp.Compare(a.corr, b.corr) })
	for _, rq := range pending {
		b := rq.batch
		p.putRequest(rq)
		p.retryOrFail(b)
	}
	p.sim.After(p.cfg.ReconnectDelay, func() {
		p.reconnecting = false
		p.conn.Reset()
		p.flushUnsent()
		p.kickSender()
	})
}

// --- resolution ---------------------------------------------------------

func (p *Producer) resolveDelivered(r *record) {
	if r.state == StateDelivered || r.state == StateLost {
		return
	}
	r.state = StateDelivered
	if r.attempts > 1 {
		r.caseNum = Case4
	} else {
		r.caseNum = Case1
	}
	r.resolved = p.sim.Now()
	lat := r.resolved - r.arrived
	p.latency.Add(float64(lat) / float64(time.Millisecond))
	if p.staleOver > 0 && lat > p.staleOver {
		p.stale++
	}
	p.counts.Delivered++
	p.hSpanAck.Observe(int64(lat))
	p.trace.Emit(obs.LayerProducer, obs.EvRecordDelivered, r.key, int64(r.attempts), int64(r.caseNum), "")
	p.record(r)
}

func (p *Producer) resolveLost(r *record) {
	if r.state == StateDelivered || r.state == StateLost {
		return
	}
	r.state = StateLost
	if r.attempts == 0 {
		r.caseNum = Case2
	} else {
		r.caseNum = Case3
	}
	r.resolved = p.sim.Now()
	p.counts.Lost++
	p.trace.Emit(obs.LayerProducer, obs.EvRecordLost, r.key, int64(r.attempts), int64(r.caseNum), "")
	p.record(r)
}

func (p *Producer) record(r *record) {
	p.counts.Total++
	p.counts.ByCase[r.caseNum]++
	if p.outcomes != nil {
		p.outcomes = append(p.outcomes, Outcome{
			Key:      r.key,
			State:    r.state,
			Case:     r.caseNum,
			Attempts: r.attempts,
			Latency:  r.resolved - r.arrived,
		})
	}
	// Resolution is a record's unique terminal sink: every owner (queue,
	// batch) relinquishes the record on the path that resolves it, so it
	// can be recycled here. It is zeroed again on reuse.
	p.recs.Put(r)
}

func (p *Producer) maybeComplete() {
	if p.finished || !p.intakeDone {
		return
	}
	if p.queue.len() > 0 || len(p.inFlight) > 0 || p.senderBusy ||
		len(p.unsent) > 0 || p.retryPending > 0 {
		return
	}
	p.finished = true
	if p.onComplete != nil {
		p.onComplete()
	}
}
