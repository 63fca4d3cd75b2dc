package transport

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/netem"
	"kafkarel/internal/stats"
)

// spikyDelay is a propagation delay of base ms that now and then jumps to
// several RTOs. The link delivers in order, so a spike holds back every
// packet behind it: the sender times out on segments that are merely
// late, and the receiver sees both copies — duplication by spurious RTO.
type spikyDelay struct {
	rng   *rand.Rand
	base  float64
	spike float64 // probability of a spike
}

func (d *spikyDelay) Sample() float64 {
	if d.rng.Float64() < d.spike {
		return 300 + 500*d.rng.Float64()
	}
	return d.base
}

// ledger audits packet memory over one client→server transfer, event by
// event. Data flows one way only, so the forward link carries nothing but
// data packets and the reverse link nothing but acknowledgements, and
// what a link has taken and neither dropped nor delivered is in flight.
// Every buffer, dataPkt and ackPkt that exists is then either alive (in
// flight, or parked in an out-of-order slot) or pooled, and alive+pooled
// can only grow, by a fresh draw: a fall is memory that met an end of life
// without being put back.
type ledger struct {
	t    *testing.T
	conn *Conn
	path *netem.Path

	bufs, data, acks             int // alive + pooled at the last check
	peakBufs, peakPkts, peakAcks int // most alive at once, between events
	dataLost                     uint64
}

// pooled is the number of values waiting in l; des keeps the list's slice
// to itself, and the audit only reads its length through reflection, by
// the field's name (des.FreeList.free carries a note saying so).
func pooled[T any](t *testing.T, l *des.FreeList[T]) int {
	t.Helper()
	f := reflect.ValueOf(l).Elem().FieldByName("free")
	if f.Kind() != reflect.Slice {
		t.Fatal("des.FreeList has no slice field \"free\" to count pooled values from")
	}
	return f.Len()
}

func inFlight(l *netem.Link) int {
	c := l.Counters()
	return int(c.Offered - c.Delivered - c.LostRandom - c.LostOverflow)
}

// auditPool fails if a backing array is in the connection's pool twice,
// or in it while one of the server's out-of-order slots holds it.
func auditPool(t *testing.T, conn *Conn) {
	t.Helper()
	pool, now := conn.Client.bufs, conn.Client.sim.Now()
	pooled := make(map[*byte]bool, len(pool.free))
	for _, b := range pool.free {
		p := &b[:1][0]
		if pooled[p] {
			t.Fatalf("t=%v: a buffer is in the pool twice", now)
		}
		pooled[p] = true
	}
	for seq, b := range conn.Server.ooo {
		if pooled[&b[0]] {
			t.Fatalf("t=%v: out-of-order slot %d holds a buffer that is in the pool", now, seq)
		}
		pooled[&b[0]] = true // two slots sharing a buffer trip the same wire
	}
}

func (g *ledger) check() {
	g.t.Helper()
	client, server, pool := g.conn.Client, g.conn.Server, g.conn.Client.bufs
	auditPool(g.t, g.conn)
	if len(client.ooo) != 0 {
		g.t.Fatalf("t=%v: the client holds out-of-order data nobody sent", client.sim.Now())
	}
	aliveBufs := inFlight(g.path.Fwd) + len(server.ooo)
	for _, c := range []struct {
		what         string
		alive, total int
		last, peak   *int
	}{
		{"payload buffer", aliveBufs, aliveBufs + len(pool.free), &g.bufs, &g.peakBufs},
		{"dataPkt", inFlight(g.path.Fwd), inFlight(g.path.Fwd) + pooled(g.t, &client.datas), &g.data, &g.peakPkts},
		{"ackPkt", inFlight(g.path.Rev), inFlight(g.path.Rev) + pooled(g.t, &server.acks), &g.acks, &g.peakAcks},
	} {
		if c.total < *c.last {
			g.t.Fatalf("t=%v: %d %s(s) alive or pooled, %d a moment ago: one met its end without being put back",
				client.sim.Now(), c.total, c.what, *c.last)
		}
		*c.last = c.total
		if c.alive > *c.peak {
			*c.peak = c.alive
		}
	}
	if pooled(g.t, &server.datas) != 0 || pooled(g.t, &client.acks) != 0 {
		g.t.Fatalf("a packet went back to the wrong endpoint's free list")
	}
}

// ownershipRun moves chunks×chunk bytes from client to server over a path
// with the given loss, delay spikes and (optionally) a shallow device
// queue, resetting the connection at each of resets, and audits the
// ledger after every single event. The stream of the last generation must
// arrive intact.
func ownershipRun(t *testing.T, seed uint64, loss, spike float64, queue int, chunk, chunks int, resets []time.Duration) *ledger {
	t.Helper()
	sim := des.New()
	mk := func(s uint64) netem.Config {
		c := netem.Config{Delay: &spikyDelay{rng: rng(s), base: 5, spike: spike}}
		if loss > 0 {
			l, err := stats.NewBernoulli(loss, rng(s+100))
			if err != nil {
				t.Fatal(err)
			}
			c.Loss = l
		}
		if queue > 0 {
			c.Bandwidth, c.QueueLimit = 20e6, queue
		}
		return c
	}
	path, err := netem.NewPath(sim, mk(seed), mk(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewConn(sim, path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := &ledger{t: t, conn: conn, path: path}

	// The application: send a chunk, and the next one when it has arrived
	// whole. A reset (scheduled, or after a break) starts the current
	// chunk over, as a reconnecting client would.
	var want []byte
	got, sent := 0, 0
	send := func() {
		want, got = pattern(chunk, seed+uint64(sent)), 0
		if err := conn.Client.Send(want); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	restart := func() {
		if sent < chunks {
			conn.Reset()
			send()
		}
	}
	conn.Server.OnReceive(func(b []byte) {
		if got+len(b) > len(want) || !bytes.Equal(b, want[got:got+len(b)]) {
			t.Fatalf("t=%v: stream corrupted at byte %d of chunk %d", sim.Now(), got, sent)
		}
		if got += len(b); got == len(want) {
			if sent++; sent < chunks {
				send()
			}
		}
	})
	conn.Client.OnBroken(func(error) { sim.After(time.Second, restart) })
	for _, at := range resets {
		sim.Schedule(at, restart)
	}
	send()
	for {
		err := sim.RunLimit(1)
		g.check()
		if err == nil {
			break
		}
		if !errors.Is(err, des.ErrStopped) {
			t.Fatal(err)
		}
	}
	if sent != chunks {
		t.Fatalf("seed %d: %d of %d chunks arrived", seed, sent, chunks)
	}
	if n := inFlight(path.Fwd) + inFlight(path.Rev) + len(conn.Server.ooo); n != 0 {
		t.Fatalf("seed %d: %d packets or slots still alive after the run", seed, n)
	}
	fwd := path.Fwd.Counters()
	g.dataLost = fwd.LostRandom + fwd.LostOverflow
	return g
}

// Packet memory is linearly owned: from transmit/sendAck to exactly one
// end of life, which puts it back. Over random schedules of loss,
// duplication by spurious RTO, out-of-order arrival, queue overflow and
// Reset, audited after every event: no backing array is in the pool
// twice, or in the pool while an out-of-order slot holds it; nothing
// alive-or-pooled ever goes missing; the stream arrives intact (a buffer
// pooled while a packet still held it would be overwritten under it); and
// what was drawn afresh is bounded by the most ever alive at once, not by
// how many packets were lost.
func TestPacketMemoryIsLinearlyOwned(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng(seed * 7919)
		loss := []float64{0, 0.05, 0.2, 0.35}[r.IntN(4)]
		spike := []float64{0, 0.02, 0.1}[r.IntN(3)]
		queue := []int{0, 0, 4}[r.IntN(3)]
		var resets []time.Duration
		for i := r.IntN(4); i > 0; i-- {
			resets = append(resets, time.Duration(r.IntN(4000))*time.Millisecond)
		}
		g := ownershipRun(t, seed, loss, spike, queue, 60_000, 2, resets)
		// A fresh draw happens only with the pool empty, that is with
		// everything drawn so far alive; the one beyond the peak seen
		// between events is the packet a link refused at the end of an
		// event, back in the pool at once.
		if g.bufs > g.peakBufs+1 || g.data > g.peakPkts+1 || g.acks > g.peakAcks+1 {
			t.Errorf("seed %d (loss %v spike %v queue %d resets %v): drew %d buffers, %d dataPkts, %d ackPkts with at most %d, %d, %d alive at once",
				seed, loss, spike, queue, resets, g.bufs, g.data, g.acks, g.peakBufs, g.peakPkts, g.peakAcks)
		}
	}
}

// Moving four times the bytes over a 20 % loss path loses four times the
// packets and draws no more memory for it.
func TestLostPacketsDrawNoMemory(t *testing.T) {
	one := ownershipRun(t, 5, 0.2, 0, 0, 100_000, 1, nil)
	four := ownershipRun(t, 5, 0.2, 0, 0, 100_000, 4, nil)
	t.Logf("1x: %d buffers %d dataPkts %d ackPkts drawn, %d data packets lost; 4x: %d %d %d, %d lost",
		one.bufs, one.data, one.acks, one.dataLost, four.bufs, four.data, four.acks, four.dataLost)
	if four.dataLost < 3*one.dataLost || int(four.dataLost) < 4*four.bufs {
		t.Fatalf("the path lost %d then %d data packets: too few to tell draws from losses", one.dataLost, four.dataLost)
	}
	if four.bufs > one.bufs || four.data > one.data || four.acks > one.acks {
		t.Errorf("4x the bytes drew %d buffers, %d dataPkts, %d ackPkts; 1x drew %d, %d, %d",
			four.bufs, four.data, four.acks, one.bufs, one.data, one.acks)
	}
}

// The receiver's ends of life, each driven by hand: a second copy of a
// segment waiting out of order returns the copy it displaces, a copy of
// delivered data returns itself, the in-order drain returns what it
// consumes, and Reset returns what it clears.
func TestReceiverReturnsEveryBufferItIsHanded(t *testing.T) {
	sim := des.New()
	conn := testConn(t, sim, 1, 0, 1, Config{})
	srv, pool := conn.Server, conn.Server.bufs
	seg := func() []byte { return pool.get(mss) }
	pooled := func(want int, when string) {
		t.Helper()
		auditPool(t, conn)
		if len(pool.free) != want {
			t.Fatalf("%s: %d buffers pooled, want %d", when, len(pool.free), want)
		}
	}
	srv.receiveData(mss, seg())
	srv.receiveData(mss, seg())
	pooled(1, "second copy of an out-of-order segment")
	srv.receiveData(2*mss, seg())
	srv.receiveData(0, seg())
	pooled(3, "in-order arrival draining two parked segments")
	srv.receiveData(mss, seg())
	pooled(3, "copy of delivered data")
	srv.receiveData(4*mss, seg())
	srv.receiveData(5*mss, seg())
	pooled(1, "two segments parked")
	conn.Reset()
	pooled(3, "Reset with two segments parked")
}
