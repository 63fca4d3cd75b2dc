package producer

import (
	"slices"
	"testing"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/netem"
	"kafkarel/internal/stats"
	"kafkarel/internal/transport"
	"kafkarel/internal/wire"
)

type noCosts struct{}

func (noCosts) IOTime(int) time.Duration  { return 0 }
func (noCosts) SerTime(int) time.Duration { return 0 }

type noSource struct{}

func (noSource) Next() ([]byte, bool) { return nil, false }

// blockedSocketRig is a fire-and-forget producer on a socket whose send
// buffer holds sendBuffer bytes (0: any number), over a clean 100 µs path
// to a server that only acknowledges. The tests hand trySend the batches
// kickSender would.
func blockedSocketRig(t *testing.T, sendBuffer int) (*des.Simulator, *Producer, *transport.Conn, *netem.Path) {
	t.Helper()
	sim := des.New()
	link := netem.Config{Delay: stats.Constant{Value: 0.1}}
	path, err := netem.NewPath(sim, link, link)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.NewConn(sim, path, transport.Config{SendBufferLimit: sendBuffer})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(sim, Config{
		Topic:          "t",
		Semantics:      AtMostOnce,
		BatchSize:      1,
		MessageTimeout: time.Hour,
		RequestTimeout: time.Second,
		MaxInFlight:    5,
		QueueLimit:     100,
		ReconnectDelay: time.Second,
	}, noCosts{}, conn, noSource{})
	if err != nil {
		t.Fatal(err)
	}
	return sim, p, conn, path
}

func (p *Producer) testBatch(payload []byte) *batch {
	b := p.batches.Get()
	r := p.getRecord()
	p.nextKey++
	r.key, r.payload, r.arrived, r.deadline = p.nextKey, payload, p.sim.Now(), p.sim.Now()+p.cfg.MessageTimeout
	b.records = append(b.records, r)
	p.batchSeq++
	b.seq = p.batchSeq
	return b
}

// A blocked socket queues batches in p.unsent and flushUnsent drains them
// in order; the queue keeps its backing array through every pop, so the
// cycle — block, drain on the retry timer, and trySend getting through
// with batches still queued behind it, which flushes from inside trySend —
// allocates nothing per batch.
func TestBlockedSocketCycleDoesNotAllocate(t *testing.T) {
	payload := make([]byte, 100)
	// One frame's size, from a socket that takes anything.
	_, probe, probeConn, _ := blockedSocketRig(t, 0)
	probe.trySend(probe.testBatch(payload))
	frame := probeConn.Client.BufferedBytes()
	if frame == 0 {
		t.Fatal("probe batch was not written")
	}

	const blocked = 8
	sim, p, conn, _ := blockedSocketRig(t, 2*frame+frame/2) // room for two frames
	run := func(d time.Duration) {
		if err := sim.RunUntil(sim.Now() + d); err != nil {
			t.Fatal(err)
		}
	}
	sent := uint64(0)
	cycle := func() {
		// Two batches fill the socket, the next eight queue behind it.
		for i := 0; i < 2+blocked; i++ {
			p.trySend(p.testBatch(payload))
		}
		if len(p.unsent) != blocked || !p.sendRetryArmed {
			t.Fatalf("%d batches queued (retry armed: %v), want %d", len(p.unsent), p.sendRetryArmed, blocked)
		}
		// The acknowledgements empty the socket well before the 2 ms retry
		// timer. A new batch now gets through, and trySend flushes the
		// queue behind it until the socket blocks again: one pop.
		run(time.Millisecond)
		if conn.Client.BufferedBytes() != 0 || len(p.unsent) != blocked {
			t.Fatalf("after 1 ms: %d bytes buffered, %d queued", conn.Client.BufferedBytes(), len(p.unsent))
		}
		p.trySend(p.testBatch(payload))
		if len(p.unsent) != blocked-1 {
			t.Fatalf("trySend with room left %d queued, want %d", len(p.unsent), blocked-1)
		}
		// The retry timer drains the rest, two frames per round trip.
		run(50 * time.Millisecond)
		if len(p.unsent) != 0 || p.sendRetryArmed || conn.Client.BufferedBytes() != 0 {
			t.Fatalf("after the drain: %d queued, retry armed %v, %d bytes buffered", len(p.unsent), p.sendRetryArmed, conn.Client.BufferedBytes())
		}
		sent += 3 + blocked
		if p.counts.Delivered != sent || p.counts.Lost != 0 {
			t.Fatalf("counts %+v after %d batches", p.counts, sent)
		}
	}
	cycle()
	cycle() // the second pass settles every free list's capacity
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("a blocked-socket cycle of %d batches allocated %.0f times, want 0", 3+blocked, allocs)
	}
}

// A refused attempt touches nothing but the correlation counter. The
// socket holds one frame with a byte to spare and its link is down, so
// that frame is never acknowledged and every attempt of the next batch is
// refused: K retry timers leave the encode scratch as they found it (race
// builds build every refused attempt on purpose, verifyRefused) and take
// exactly K correlation ids. Once the link is back and the 1 s initial RTO
// has resent the stranded frame, the server decodes the ids the refusals
// left their gaps in.
func TestRefusedAttemptTouchesNothing(t *testing.T) {
	payload := make([]byte, 100)
	_, probe, probeConn, _ := blockedSocketRig(t, 0)
	probe.trySend(probe.testBatch(payload))
	frame := probeConn.Client.BufferedBytes()

	sim, p, conn, path := blockedSocketRig(t, frame+1)
	var (
		split wire.Splitter
		dec   wire.Decoder
		ids   []uint32
	)
	conn.Server.OnReceive(func(chunk []byte) {
		frames, err := split.Push(chunk)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			req, err := dec.ProduceRequest(f.Body)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, req.CorrelationID)
		}
	})
	run := func(d time.Duration) {
		if err := sim.RunUntil(sim.Now() + d); err != nil {
			t.Fatal(err)
		}
	}

	path.Fwd.SetFaultLoss(stats.AlwaysLoss{})
	p.trySend(p.testBatch(payload)) // id 1: taken, lost on the link
	p.trySend(p.testBatch(payload)) // id 2: refused
	if len(p.unsent) != 1 || p.corr != 2 || conn.Client.BufferedBytes() != frame {
		t.Fatalf("%d queued, corr %d, %d bytes buffered; want 1, 2, %d", len(p.unsent), p.corr, conn.Client.BufferedBytes(), frame)
	}
	// Poison everything a build would write.
	const poison = 0xEE
	frameBuf := p.frameBuf[:cap(p.frameBuf)]
	for i := range frameBuf {
		frameBuf[i] = poison
	}
	encRecords := p.encRecords[:cap(p.encRecords)]
	for i := range encRecords {
		encRecords[i] = wire.Record{Key: poison}
	}

	const k = 10
	run(k*2*time.Millisecond + time.Millisecond)
	if p.corr != 2+k {
		t.Errorf("%d retry timers advanced corr to %d, want %d", k, p.corr, 2+k)
	}
	if len(p.unsent) != 1 || conn.Client.BufferedBytes() != frame || conn.Client.Stats().SegmentsSent != 1 {
		t.Errorf("after %d refusals: %d queued, %d bytes buffered, %d segments sent", k, len(p.unsent), conn.Client.BufferedBytes(), conn.Client.Stats().SegmentsSent)
	}
	if !verifyRefused {
		if len(p.frameBuf) != frame || len(p.encRecords) != 1 {
			t.Errorf("scratch resliced: frame buffer %d bytes, %d wire records", len(p.frameBuf), len(p.encRecords))
		}
		for i, c := range frameBuf {
			if c != poison {
				t.Fatalf("frame buffer byte %d written by a refused attempt", i)
			}
		}
		for i, r := range encRecords {
			if r.Key != poison || r.Timestamp != 0 || r.Payload != nil {
				t.Fatalf("wire record %d written by a refused attempt", i)
			}
		}
	}

	path.Fwd.SetFaultLoss(nil)
	run(2 * time.Second)
	if len(p.unsent) != 0 || p.counts.Delivered != 2 {
		t.Fatalf("after the stall: %d queued, counts %+v", len(p.unsent), p.counts)
	}
	// Batch 2 was refused at trySend and by the retry timers at 2, 4, …,
	// 1000 ms — 501 ids — and went out at 1002 ms, once the RTO at 1 s had
	// resent batch 1 and its acknowledgement had emptied the socket.
	if want := []uint32{1, 503}; !slices.Equal(ids, want) {
		t.Errorf("server decoded correlation ids %v, want %v", ids, want)
	}
}
