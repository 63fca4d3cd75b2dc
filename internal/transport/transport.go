// Package transport implements a reliable, in-order byte stream over a
// lossy netem path — the stand-in for the TCP connection between the
// Kafka producer and the cluster in the paper's testbed.
//
// The model keeps the mechanisms that matter for the paper's findings:
// MSS segmentation, cumulative acknowledgements, an adaptive
// retransmission timeout (RFC 6298-style SRTT/RTTVAR with exponential
// backoff), fast retransmit on duplicate ACKs, and Reno-style congestion
// control (slow start, congestion avoidance, multiplicative decrease).
// Those are exactly the behaviours Sec. IV of the paper attributes the
// observed reliability shapes to: graceful goodput degradation up to
// roughly 8 % packet loss followed by timeout-dominated collapse, and
// round-trip inflation that triggers application-level retries.
package transport

import (
	"errors"
	"fmt"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
)

// Errors surfaced to users of a connection.
var (
	// ErrBroken is reported after a segment exhausts its retransmission
	// budget; the connection must be Reset before further use.
	ErrBroken = errors.New("transport: connection broken")
	// ErrBufferFull is returned by Send when the send buffer limit would
	// be exceeded.
	ErrBufferFull = errors.New("transport: send buffer full")
)

// Config tunes a connection. The zero value is usable.
type Config struct {
	// SendBufferLimit bounds bytes buffered per endpoint (0 = unlimited).
	SendBufferLimit int
	// Obs attaches the per-run observability bundle, whose tracer the
	// connection emits to. nil disables tracing for this connection.
	Obs *obs.Obs
}

// The parts of the TCP model no run or test varies, at common Linux values.
const (
	// mss is the maximum segment payload in bytes.
	mss = 1460
	// segmentOverhead models IP+TCP header bytes added to every segment
	// on the wire; ackSize is the wire size of a pure acknowledgement.
	segmentOverhead = 40
	ackSize         = 40
	// initialCwnd is the initial congestion window in segments; maxWindow
	// caps the send window in segments (the receiver window).
	initialCwnd = 10
	maxWindow   = 64
	// initialRTO seeds the retransmission timeout; minRTO (Linux's 200 ms)
	// and maxRTO bound it.
	initialRTO = 1 * time.Second
	minRTO     = 200 * time.Millisecond
	maxRTO     = 60 * time.Second
	// maxRetries is the per-segment retransmission budget before the
	// connection is declared broken (Linux tcp_retries2).
	maxRetries = 15
	// dupAckThreshold triggers fast retransmit (TCP's classic 3).
	dupAckThreshold = 3
)

// Stats counts transport-level activity on one endpoint, beside its
// sender's instantaneous state (SRTT, RTO, Cwnd, InFlight).
type Stats struct {
	SegmentsSent    uint64
	Retransmissions uint64
	FastRetransmits uint64
	Timeouts        uint64
	AcksSent        uint64
	BytesDelivered  uint64
	SRTT            time.Duration
	RTO             time.Duration
	// RTOMax is the largest RTO the endpoint reached; a connection reset
	// does not clear it.
	RTOMax   time.Duration
	Cwnd     float64 // congestion window, segments
	InFlight int     // segments sent and not yet acknowledged
}

// dataPkt is a pooled in-flight data packet. It owns its payload buffer:
// every transmission draws its own (pump and retransmit each call
// bufs.get), and the pair goes back exactly once — the struct when the
// link drops it (transmit) or delivers it (deliverDataPkt), the buffer at
// whichever end of life the packet meets: dropped, stale generation,
// duplicate, displaced from or cleared out of an out-of-order slot, or
// consumed in order (DESIGN.md §7 "Packet ownership").
type dataPkt struct {
	from    *Endpoint
	gen     uint64
	seq     int64
	payload []byte
}

// ackPkt is a pooled in-flight pure acknowledgement.
type ackPkt struct {
	from *Endpoint
	gen  uint64
	ack  int64
}

// deliverDataPkt fires at the far end of the netem link. Fields are
// copied out before the packet struct is recycled; the payload buffer
// passes to the receiver, which returns it at the end receiveData picks.
// A packet of a generation Reset has ended reaches no receiver, so its
// buffer goes back here.
func deliverDataPkt(a any, _ bool) {
	p := a.(*dataPkt)
	from, gen, seq, payload := p.from, p.gen, p.seq, p.payload
	from.putDataPkt(p)
	if from.genSent != gen {
		from.bufs.put(payload)
		return
	}
	from.peer.receiveData(seq, payload)
}

func deliverAckPkt(a any, _ bool) {
	p := a.(*ackPkt)
	from, gen, ack := p.from, p.gen, p.ack
	from.putAckPkt(p)
	if from.genSent != gen {
		return
	}
	from.peer.receiveAck(ack)
}

// bufPool recycles MSS-sized segment payload buffers. One pool is shared
// by both endpoints of a Conn: the sender draws a buffer, the receiver
// returns it after consuming the bytes, all on the single DES goroutine.
type bufPool struct {
	free [][]byte
}

func (p *bufPool) get(n int) []byte {
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		return b[:n]
	}
	return make([]byte, n, mss)
}

// put returns a buffer to the pool. Buffers that did not come from the
// pool (wrong capacity) are left to the garbage collector.
func (p *bufPool) put(b []byte) {
	if cap(b) == mss {
		p.free = append(p.free, b[:0])
	}
}

// segMeta tracks an in-flight segment at the sender.
type segMeta struct {
	seq     int64
	size    int
	sentAt  time.Duration
	retries int
	// rttEligible is false after a retransmission (Karn's algorithm: no
	// RTT sample from retransmitted segments).
	rttEligible bool
}

// Endpoint is one side of a connection. Not safe for concurrent use; the
// DES is single-threaded.
type Endpoint struct {
	name string
	sim  *des.Simulator
	cfg  Config
	out  *netem.Link // link towards the peer
	peer *Endpoint

	// Sender state. sendBuf holds accepted bytes; the prefix below
	// sendHead is already acknowledged and is reclaimed by compacting in
	// place when the buffer needs to grow, so steady-state sending reuses
	// one backing array instead of reallocating per send.
	sendBuf   []byte
	sendHead  int   // index of the first live byte in sendBuf
	sndUna    int64 // oldest unacknowledged byte
	sndNxt    int64 // next byte to segment
	bufBase   int64 // byte offset of sendBuf[sendHead]
	inFlight  []*segMeta
	metas     des.FreeList[segMeta] // in-flight segment records
	datas     des.FreeList[dataPkt] // data packets, back from the link
	acks      des.FreeList[ackPkt]  // acknowledgements, back from the link
	bufs      *bufPool              // payload buffers, shared with the peer
	cwnd      float64
	ssthresh  float64
	rto       time.Duration
	srtt      time.Duration
	rttvar    time.Duration
	backoff   int
	dupAcks   int
	timer     *des.Timer
	broken    bool
	brokenErr error

	// Receiver state.
	rcvNxt  int64
	ooo     map[int64][]byte // out-of-order segments keyed by seq
	onRecv  func([]byte)
	onErr   func(error)
	stats   Stats
	genSent uint64 // connection generation, bumped by Reset to kill stale timers

	// Observability (nil-safe handles; see internal/obs).
	trace    *obs.Tracer
	lastCwnd int // last traced integer cwnd, to emit cwnd_change on transitions only
}

// Conn is a duplex connection: the Client endpoint sends on path.Fwd and
// the Server endpoint on path.Rev.
type Conn struct {
	Client  *Endpoint
	Server  *Endpoint
	onReset []func()
}

// OnReset registers a callback invoked after every Reset, letting layers
// that keep per-connection parsing state (frame splitters) start fresh as
// they would on a new socket.
func (c *Conn) OnReset(fn func()) {
	if fn != nil {
		c.onReset = append(c.onReset, fn)
	}
}

// NewConn builds a connection over the path. No handshake is modelled;
// the paper's experiments hold connections open for their whole duration.
func NewConn(sim *des.Simulator, path *netem.Path, cfg Config) (*Conn, error) {
	if sim == nil || path == nil {
		return nil, fmt.Errorf("transport: nil simulator or path")
	}
	client := newEndpoint("client", sim, cfg, path.Fwd)
	server := newEndpoint("server", sim, cfg, path.Rev)
	client.peer = server
	server.peer = client
	pool := &bufPool{}
	client.bufs = pool
	server.bufs = pool
	return &Conn{Client: client, Server: server}, nil
}

func (e *Endpoint) getMeta() *segMeta {
	m := e.metas.Get()
	*m = segMeta{}
	return m
}

func (e *Endpoint) putDataPkt(p *dataPkt) {
	*p = dataPkt{}
	e.datas.Put(p)
}

func (e *Endpoint) putAckPkt(p *ackPkt) {
	*p = ackPkt{}
	e.acks.Put(p)
}

func newEndpoint(name string, sim *des.Simulator, cfg Config, out *netem.Link) *Endpoint {
	e := &Endpoint{
		name:     name,
		sim:      sim,
		cfg:      cfg,
		out:      out,
		cwnd:     initialCwnd,
		ssthresh: maxWindow,
		rto:      initialRTO,
		ooo:      make(map[int64][]byte),
		trace:    cfg.Obs.Tracer(),
		lastCwnd: initialCwnd,
	}
	e.timer = des.NewTimer(sim, e.onRTO)
	return e
}

// Reset discards all state on both endpoints, emulating a reconnect after
// a broken connection. Buffered and in-flight bytes are lost, exactly as
// an application sees when it reopens a TCP socket.
func (c *Conn) Reset() {
	c.Client.reset()
	c.Server.reset()
	for _, fn := range c.onReset {
		fn()
	}
}

func (e *Endpoint) reset() {
	e.timer.Stop()
	e.genSent++
	e.sendBuf = e.sendBuf[:0]
	e.sendHead = 0
	e.sndUna, e.sndNxt, e.bufBase = 0, 0, 0
	for i, m := range e.inFlight {
		e.metas.Put(m)
		e.inFlight[i] = nil
	}
	e.inFlight = e.inFlight[:0]
	e.cwnd = initialCwnd
	e.ssthresh = maxWindow
	e.rto = initialRTO
	e.srtt, e.rttvar = 0, 0
	e.backoff = 0
	e.dupAcks = 0
	e.broken = false
	e.brokenErr = nil
	e.rcvNxt = 0
	for _, payload := range e.ooo {
		e.bufs.put(payload)
	}
	clear(e.ooo)
	e.lastCwnd = initialCwnd
	// Peer receiver state resets on its own endpoint's reset.
}

// OnReceive registers the in-order delivery callback. Chunks arrive in
// stream order with no gaps; boundaries are arbitrary. The chunk is only
// valid for the duration of the callback — the buffer is recycled for
// future segments — so callers that keep the bytes must copy them (as a
// real TCP reader copies out of the kernel buffer).
func (e *Endpoint) OnReceive(fn func([]byte)) { e.onRecv = fn }

// OnBroken registers the callback invoked once when the connection
// breaks.
func (e *Endpoint) OnBroken(fn func(error)) { e.onErr = fn }

// InjectFailure forcibly breaks the endpoint as if its retransmission
// budget had run out — the chaos engine's forced-connection-reset fault.
// The OnBroken callback fires as for an organic break, so the client's
// normal reconnect path takes over. No-op on an already-broken endpoint.
func (e *Endpoint) InjectFailure(reason string) {
	if e.broken {
		return
	}
	e.fail(fmt.Errorf("%w: injected reset: %s", ErrBroken, reason))
}

// Stats returns a snapshot including the sender's current state.
func (e *Endpoint) Stats() Stats {
	s := e.stats
	s.SRTT, s.RTO, s.Cwnd, s.InFlight = e.srtt, e.rto, e.cwnd, len(e.inFlight)
	return s
}

// BufferedBytes returns bytes accepted by Send but not yet acknowledged.
func (e *Endpoint) BufferedBytes() int {
	return int(e.bufBase + int64(len(e.sendBuf)-e.sendHead) - e.sndUna)
}

// Accepts reports whether Send would take n bytes now: the endpoint is
// not broken and n more bytes fit under SendBufferLimit. Send decides
// with it, so a sender that knows a message's size before building it
// can ask first and skip the build when the answer is no.
func (e *Endpoint) Accepts(n int) bool {
	return !e.broken && (e.cfg.SendBufferLimit <= 0 || e.BufferedBytes()+n <= e.cfg.SendBufferLimit)
}

// Send queues data for reliable delivery to the peer. The data is copied.
func (e *Endpoint) Send(data []byte) error {
	if !e.Accepts(len(data)) {
		if e.broken {
			return e.brokenErr
		}
		return ErrBufferFull
	}
	// Compact the acknowledged prefix back to the start of the backing
	// array when growth would otherwise reallocate: steady-state traffic
	// then cycles through a single buffer.
	if e.sendHead > 0 && len(e.sendBuf)+len(data) > cap(e.sendBuf) {
		n := copy(e.sendBuf, e.sendBuf[e.sendHead:])
		e.sendBuf = e.sendBuf[:n]
		e.sendHead = 0
	}
	e.sendBuf = append(e.sendBuf, data...)
	e.pump()
	return nil
}

// windowSegs returns how many segments may be in flight right now.
func (e *Endpoint) windowSegs() int {
	w := int(e.cwnd)
	if w < 1 {
		w = 1
	}
	if w > maxWindow {
		w = maxWindow
	}
	return w
}

// pump segments buffered bytes onto the wire while the window allows.
func (e *Endpoint) pump() {
	for !e.broken && len(e.inFlight) < e.windowSegs() {
		off := e.sendHead + int(e.sndNxt-e.bufBase)
		if off >= len(e.sendBuf) {
			return // nothing new to send
		}
		n := len(e.sendBuf) - off
		if n > mss {
			n = mss
		}
		payload := e.bufs.get(n)
		copy(payload, e.sendBuf[off:off+n])
		m := e.getMeta()
		m.seq, m.size, m.sentAt, m.rttEligible = e.sndNxt, n, e.sim.Now(), true
		e.inFlight = append(e.inFlight, m)
		e.sndNxt += int64(n)
		e.transmit(m, payload)
		if !e.timer.Armed() {
			e.timer.Reset(e.rto)
		}
	}
}

// traceCwnd emits a cwnd_change event when the integer congestion window
// moved since the last emission. Called after every cwnd adjustment so the
// trace shows the Reno sawtooth without one event per ack.
func (e *Endpoint) traceCwnd() {
	if e.trace == nil {
		return
	}
	if w := int(e.cwnd); w != e.lastCwnd {
		e.lastCwnd = w
		e.trace.Emit(obs.LayerTransport, obs.EvCwndChange, 0, int64(w), int64(e.ssthresh), e.name)
	}
}

func (e *Endpoint) transmit(m *segMeta, payload []byte) {
	e.stats.SegmentsSent++
	e.trace.Emit(obs.LayerTransport, obs.EvSegmentSend, uint64(m.seq), int64(m.size), int64(m.retries), e.name)
	p := e.datas.Get()
	p.from, p.gen, p.seq, p.payload = e, e.genSent, m.seq, payload
	if !e.out.SendFn(m.size+segmentOverhead, deliverDataPkt, p) {
		e.putDataPkt(p)
		e.bufs.put(payload)
	}
}

// retransmit resends the oldest unacked segment. Every in-flight segment
// loses RTT eligibility (Karn's algorithm, conservative form): their
// cumulative acks are delayed by this recovery, so their samples would
// measure head-of-line blocking rather than path RTT.
func (e *Endpoint) retransmit(m *segMeta) {
	m.retries++
	for _, f := range e.inFlight {
		f.rttEligible = false
	}
	m.sentAt = e.sim.Now()
	e.stats.Retransmissions++
	e.trace.Emit(obs.LayerTransport, obs.EvSegmentRetransmit, uint64(m.seq), int64(m.size), int64(m.retries), e.name)
	off := e.sendHead + int(m.seq-e.bufBase)
	payload := e.bufs.get(m.size)
	copy(payload, e.sendBuf[off:off+m.size])
	e.transmit(m, payload)
}

// onRTO handles a retransmission timeout: back off, shrink the window,
// resend the earliest segment.
func (e *Endpoint) onRTO() {
	if e.broken || len(e.inFlight) == 0 {
		return
	}
	e.stats.Timeouts++
	m := e.inFlight[0]
	if m.retries >= maxRetries {
		e.fail(fmt.Errorf("%w: segment seq=%d exceeded %d retries", ErrBroken, m.seq, maxRetries))
		return
	}
	// RFC 5681: ssthresh = max(flight/2, 2 segments); cwnd back to 1.
	e.ssthresh = float64(len(e.inFlight)) / 2
	if e.ssthresh < 2 {
		e.ssthresh = 2
	}
	e.cwnd = 1
	e.backoff++
	e.rto *= 2
	if e.rto > maxRTO {
		e.rto = maxRTO
	}
	e.stats.RTOMax = max(e.stats.RTOMax, e.rto)
	e.trace.Emit(obs.LayerTransport, obs.EvRTOBackoff, 0, int64(e.rto), int64(e.backoff), e.name)
	e.traceCwnd()
	e.dupAcks = 0
	e.retransmit(m)
	e.timer.Reset(e.rto)
}

func (e *Endpoint) fail(err error) {
	e.broken = true
	e.brokenErr = err
	if e.trace != nil {
		e.trace.Emit(obs.LayerTransport, obs.EvConnBroken, 0, 0, 0, e.name+": "+err.Error())
	}
	e.timer.Stop()
	for i, m := range e.inFlight {
		e.metas.Put(m)
		e.inFlight[i] = nil
	}
	e.inFlight = e.inFlight[:0]
	if e.onErr != nil {
		e.onErr(err)
	}
}

// receiveData runs at this endpoint when a data packet from the peer
// lands; it delivers in-order bytes and acknowledges every segment at
// once (out-of-order and duplicate ones too: the sender needs dup acks
// promptly for fast retransmit).
func (e *Endpoint) receiveData(seq int64, payload []byte) {
	switch {
	case seq == e.rcvNxt:
		e.deliver(payload)
		// Drain any out-of-order segments now contiguous.
		for {
			p, ok := e.ooo[e.rcvNxt]
			if !ok {
				break
			}
			delete(e.ooo, e.rcvNxt)
			e.deliver(p)
		}
	case seq > e.rcvNxt:
		// A second copy of a segment already waiting out of order
		// displaces it; the two hold different buffers. (This sender only
		// ever resends its oldest unacknowledged segment, which is never
		// ahead of rcvNxt; the receiver's books do not lean on that.)
		if old, ok := e.ooo[seq]; ok {
			e.bufs.put(old)
		}
		e.ooo[seq] = payload
	default:
		// Duplicate of already-delivered data (a spurious
		// retransmission): re-ack and drop. Its buffer is its own — the
		// retransmission drew it, the consumed copy returned a different
		// one — so it goes back here and nowhere else.
		e.bufs.put(payload)
	}
	e.sendAck()
}

func (e *Endpoint) deliver(payload []byte) {
	e.rcvNxt += int64(len(payload))
	e.stats.BytesDelivered += uint64(len(payload))
	if e.onRecv != nil {
		e.onRecv(payload)
	}
	// The in-order copy is consumed exactly once and onRecv has returned,
	// so the buffer goes back to the pool the sender draws from.
	e.bufs.put(payload)
}

// sendAck emits a pure cumulative acknowledgement to the peer. It rides
// this endpoint's outbound link, contending with outbound data — the
// bandwidth-preemption effect Sec. IV-A describes.
func (e *Endpoint) sendAck() {
	e.stats.AcksSent++
	p := e.acks.Get()
	p.from, p.gen, p.ack = e, e.genSent, e.rcvNxt
	if !e.out.SendFn(ackSize, deliverAckPkt, p) {
		e.putAckPkt(p)
	}
}

// receiveAck processes a cumulative ack arriving at this endpoint's
// sender.
func (e *Endpoint) receiveAck(ack int64) {
	if e.broken {
		return
	}
	if ack <= e.sndUna {
		// Duplicate ack.
		if len(e.inFlight) == 0 {
			return
		}
		e.dupAcks++
		if e.dupAcks == dupAckThreshold {
			// Fast retransmit + multiplicative decrease (simplified Reno:
			// no explicit fast-recovery inflation).
			e.stats.FastRetransmits++
			e.trace.Emit(obs.LayerTransport, obs.EvFastRetransmit, uint64(e.inFlight[0].seq), 0, 0, e.name)
			m := e.inFlight[0]
			if m.retries >= maxRetries {
				e.fail(fmt.Errorf("%w: segment seq=%d exceeded %d retries", ErrBroken, m.seq, maxRetries))
				return
			}
			e.ssthresh = e.cwnd / 2
			if e.ssthresh < 2 {
				e.ssthresh = 2
			}
			e.cwnd = e.ssthresh
			e.traceCwnd()
			e.retransmit(m)
			e.timer.Reset(e.rto)
		}
		return
	}

	// New data acknowledged: the ack clock is running again, so undo any
	// timeout backoff by restoring the RTO computed from the smoothed
	// estimates (Linux recomputes the RTO on every ack the same way).
	e.dupAcks = 0
	e.backoff = 0
	if e.srtt > 0 {
		e.recomputeRTO()
	}
	acked := 0
	// RTT sampling follows timestamp-style measurement: one sample per
	// cumulative ack, taken from the most recently transmitted segment it
	// covers and never from a retransmitted one (Karn's algorithm).
	// Sampling older segments would record head-of-line blocking time
	// spent behind a loss recovery as if it were path RTT.
	var sampleAt time.Duration = -1
	for acked < len(e.inFlight) {
		m := e.inFlight[acked]
		if m.seq+int64(m.size) > ack {
			break
		}
		if m.rttEligible && m.sentAt > sampleAt {
			sampleAt = m.sentAt
		}
		e.metas.Put(m)
		acked++
	}
	if acked > 0 {
		// Compact in place instead of reslicing off the front, so the
		// backing array's capacity keeps being reused.
		n := copy(e.inFlight, e.inFlight[acked:])
		for j := n; j < len(e.inFlight); j++ {
			e.inFlight[j] = nil
		}
		e.inFlight = e.inFlight[:n]
	}
	if sampleAt >= 0 {
		e.updateRTT(e.sim.Now() - sampleAt)
	}
	e.sndUna = ack
	// Release acknowledged bytes: advance the head; the prefix is
	// reclaimed by compaction in Send when the buffer next needs room.
	drop := int(e.sndUna - e.bufBase)
	if drop > 0 {
		if drop > len(e.sendBuf)-e.sendHead {
			drop = len(e.sendBuf) - e.sendHead
		}
		e.sendHead += drop
		e.bufBase += int64(drop)
		if e.sendHead == len(e.sendBuf) {
			e.sendBuf = e.sendBuf[:0]
			e.sendHead = 0
		}
	}
	// Congestion window growth.
	for i := 0; i < acked; i++ {
		if e.cwnd < e.ssthresh {
			e.cwnd++ // slow start
		} else {
			e.cwnd += 1 / e.cwnd // congestion avoidance
		}
	}
	if e.cwnd > maxWindow {
		e.cwnd = maxWindow
	}
	e.traceCwnd()
	if len(e.inFlight) == 0 {
		e.timer.Stop()
	} else {
		e.timer.Reset(e.rto)
	}
	e.pump()
}

// updateRTT applies RFC 6298 smoothing.
func (e *Endpoint) updateRTT(sample time.Duration) {
	if sample < 0 {
		return
	}
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		diff := e.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + sample) / 8
	}
	e.recomputeRTO()
}

func (e *Endpoint) recomputeRTO() {
	rto := e.srtt + 4*e.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	e.rto = rto
	e.stats.RTOMax = max(e.stats.RTOMax, rto)
}
