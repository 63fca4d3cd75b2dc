package transport

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/netem"
	"kafkarel/internal/stats"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0)) }

// testConn builds a duplex conn over symmetric links with the given delay
// (ms) and loss probability.
func testConn(t testing.TB, sim *des.Simulator, delayMs, loss float64, seed uint64, cfg Config) *Conn {
	t.Helper()
	mk := func(s uint64) netem.Config {
		c := netem.Config{Bandwidth: 100e6} // 100 Mbit/s
		if delayMs > 0 {
			c.Delay = stats.Constant{Value: delayMs}
		}
		if loss > 0 {
			l, err := stats.NewBernoulli(loss, rng(s))
			if err != nil {
				t.Fatal(err)
			}
			c.Loss = l
		}
		return c
	}
	path, err := netem.NewPath(sim, mk(seed), mk(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewConn(sim, path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func pattern(n int, seed uint64) []byte {
	r := rng(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.UintN(256))
	}
	return b
}

func TestLosslessDelivery(t *testing.T) {
	sim := des.New()
	conn := testConn(t, sim, 10, 0, 1, Config{})
	var got bytes.Buffer
	conn.Server.OnReceive(func(b []byte) { got.Write(b) })
	want := pattern(100_000, 42)
	if err := conn.Client.Send(want); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("received %d bytes, want %d; content mismatch", got.Len(), len(want))
	}
	if conn.Client.Stats().Retransmissions != 0 {
		t.Errorf("retransmissions on a lossless link: %d", conn.Client.Stats().Retransmissions)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	sim := des.New()
	conn := testConn(t, sim, 5, 0, 2, Config{})
	var s2c, c2s bytes.Buffer
	conn.Server.OnReceive(func(b []byte) { c2s.Write(b) })
	conn.Client.OnReceive(func(b []byte) { s2c.Write(b) })
	up := pattern(30_000, 1)
	down := pattern(50_000, 2)
	if err := conn.Client.Send(up); err != nil {
		t.Fatal(err)
	}
	if err := conn.Server.Send(down); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c2s.Bytes(), up) {
		t.Error("client→server stream corrupted")
	}
	if !bytes.Equal(s2c.Bytes(), down) {
		t.Error("server→client stream corrupted")
	}
}

func TestReliableUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.05, 0.15, 0.30} {
		loss := loss
		sim := des.New()
		conn := testConn(t, sim, 20, loss, 3, Config{})
		var got bytes.Buffer
		conn.Server.OnReceive(func(b []byte) { got.Write(b) })
		want := pattern(50_000, 7)
		if err := conn.Client.Send(want); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("loss=%v: received %d/%d bytes or corrupted", loss, got.Len(), len(want))
		}
		if conn.Client.Stats().Retransmissions == 0 {
			t.Errorf("loss=%v: no retransmissions recorded", loss)
		}
	}
}

func TestRTTEstimation(t *testing.T) {
	sim := des.New()
	conn := testConn(t, sim, 50, 0, 4, Config{})
	conn.Server.OnReceive(func([]byte) {})
	if err := conn.Client.Send(pattern(200_000, 9)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	srtt := conn.Client.Stats().SRTT
	// Path RTT is 100 ms plus negligible serialisation.
	if srtt < 90*time.Millisecond || srtt > 130*time.Millisecond {
		t.Errorf("SRTT = %v, want ≈100ms", srtt)
	}
	if rto := conn.Client.Stats().RTO; rto < 200*time.Millisecond {
		t.Errorf("RTO = %v below MinRTO", rto)
	}
}

func TestGoodputDegradesWithLoss(t *testing.T) {
	transferTime := func(loss float64) time.Duration {
		sim := des.New()
		conn := testConn(t, sim, 10, loss, 5, Config{})
		done := time.Duration(-1)
		total := 0
		conn.Server.OnReceive(func(b []byte) {
			total += len(b)
			if total >= 200_000 {
				done = sim.Now()
			}
		})
		if err := conn.Client.Send(pattern(200_000, 11)); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if done < 0 {
			t.Fatalf("loss=%v: transfer incomplete", loss)
		}
		return done
	}
	t0 := transferTime(0)
	t10 := transferTime(0.10)
	t30 := transferTime(0.30)
	if t10 < 2*t0 {
		t.Errorf("10%% loss too cheap: %v vs %v lossless", t10, t0)
	}
	if t30 < 3*t10 {
		t.Errorf("no timeout-dominated collapse: 30%% loss %v vs 10%% loss %v", t30, t10)
	}
}

// Under 100 % loss the first segment times out maxRetries+1 times, the
// timeout doubling from initialRTO up to the maxRTO ceiling, and the last
// timeout breaks the connection: 1+2+4+8+16+32 s, then ten times 60 s.
func TestBrokenAfterRetryBudget(t *testing.T) {
	sim := des.New()
	conn := testConn(t, sim, 10, 1.0, 6, Config{})
	var gotErr error
	brokeAt := time.Duration(-1)
	conn.Client.OnBroken(func(err error) { gotErr, brokeAt = err, sim.Now() })
	if err := conn.Client.Send([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !conn.Client.broken {
		t.Fatal("connection not broken under 100% loss")
	}
	if !errors.Is(gotErr, ErrBroken) {
		t.Errorf("OnBroken err = %v, want ErrBroken", gotErr)
	}
	if err := conn.Client.Send([]byte("more")); !errors.Is(err, ErrBroken) {
		t.Errorf("Send on broken conn = %v, want ErrBroken", err)
	}
	var want time.Duration
	for i, rto := 0, initialRTO; i <= maxRetries; i, rto = i+1, min(2*rto, maxRTO) {
		want += rto
	}
	if want != 663*time.Second {
		t.Fatalf("backoff sum = %v, want 663s at the production constants", want)
	}
	if brokeAt != want {
		t.Errorf("connection broke at %v, want %v", brokeAt, want)
	}
	if got := conn.Client.Stats().Timeouts; got != maxRetries+1 {
		t.Errorf("timeouts before breaking = %d, want %d", got, maxRetries+1)
	}
}

func TestResetRestoresService(t *testing.T) {
	sim := des.New()
	path, err := netem.NewPath(sim, netem.Config{}, netem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	loss, err := stats.NewBernoulli(1, rng(8))
	if err != nil {
		t.Fatal(err)
	}
	path.SetLoss(loss)
	conn, err := NewConn(sim, path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	conn.Server.OnReceive(func(b []byte) { got.Write(b) })
	if err := conn.Client.Send([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !conn.Client.broken {
		t.Fatal("expected broken connection")
	}
	// Heal the network and reconnect.
	path.SetLoss(nil)
	conn.Reset()
	if err := conn.Client.Send([]byte("hello again")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got.String() != "hello again" {
		t.Errorf("post-reset received %q", got.String())
	}
}

func TestSendBufferLimit(t *testing.T) {
	sim := des.New()
	conn := testConn(t, sim, 1000, 0, 9, Config{SendBufferLimit: 1000})
	conn.Server.OnReceive(func([]byte) {})
	if err := conn.Client.Send(make([]byte, 900)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Client.Send(make([]byte, 200)); !errors.Is(err, ErrBufferFull) {
		t.Errorf("Send = %v, want ErrBufferFull", err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Buffer drained after acks; room again.
	if err := conn.Client.Send(make([]byte, 200)); err != nil {
		t.Errorf("Send after drain = %v", err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRetransmitOnIsolatedDrop(t *testing.T) {
	// Drop exactly one data segment mid-stream; dup acks from later
	// segments must trigger fast retransmit well before the RTO.
	sim := des.New()
	path, err := netem.NewPath(sim,
		netem.Config{Delay: stats.Constant{Value: 10}, Bandwidth: 100e6},
		netem.Config{Delay: stats.Constant{Value: 10}, Bandwidth: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	drop := &nthLoss{n: 5} // drop the 5th forward packet
	path.Fwd.SetLoss(drop)
	conn, err := NewConn(sim, path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	conn.Server.OnReceive(func(b []byte) { got.Write(b) })
	want := pattern(30_000, 13) // ~21 segments
	if err := conn.Client.Send(want); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("stream corrupted after isolated drop")
	}
	st := conn.Client.Stats()
	if st.FastRetransmits != 1 {
		t.Errorf("FastRetransmits = %d, want 1", st.FastRetransmits)
	}
	if st.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 (fast retransmit should beat RTO)", st.Timeouts)
	}
}

// nthLoss drops exactly the n-th packet offered (1-based).
type nthLoss struct {
	n     int
	count int
}

func (l *nthLoss) Drop() bool {
	l.count++
	return l.count == l.n
}

func (l *nthLoss) Rate() float64 { return 0 }

func TestAckTrafficCountsOnReverseLink(t *testing.T) {
	sim := des.New()
	path, err := netem.NewPath(sim, netem.Config{}, netem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewConn(sim, path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn.Server.OnReceive(func([]byte) {})
	if err := conn.Client.Send(pattern(100_000, 17)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	acks := conn.Server.Stats().AcksSent
	if acks == 0 {
		t.Fatal("no acks sent")
	}
	if got := path.Rev.Counters().Offered; got < acks {
		t.Errorf("reverse link saw %d packets, want >= %d acks", got, acks)
	}
}

// The first flight is the initial window, and slow start then grows the
// window until maxWindow, not further, bounds what is in flight.
func TestCongestionWindowCapsInFlight(t *testing.T) {
	sim := des.New()
	conn := testConn(t, sim, 50, 0, 19, Config{})
	conn.Server.OnReceive(func([]byte) {})
	if err := conn.Client.Send(pattern(2_000_000, 23)); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(90 * time.Millisecond); err != nil { // before the first ack
		t.Fatal(err)
	}
	if sent := conn.Client.Stats().SegmentsSent; sent != initialCwnd {
		t.Errorf("segments sent before any ack = %d, want initial cwnd %d", sent, initialCwnd)
	}
	peak := 0
	var probe func()
	probe = func() {
		peak = max(peak, len(conn.Client.inFlight))
		if conn.Client.BufferedBytes() > 0 {
			sim.After(time.Millisecond, probe)
		}
	}
	probe()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != maxWindow {
		t.Errorf("most segments in flight = %d, want the window cap %d", peak, maxWindow)
	}
	if st := conn.Client.Stats(); st.Retransmissions != 0 {
		t.Errorf("%d retransmissions on a lossless path", st.Retransmissions)
	}
}

func TestNewConnValidation(t *testing.T) {
	if _, err := NewConn(nil, nil, Config{}); err == nil {
		t.Error("nil args accepted")
	}
}

// Property: for any loss rate up to 30% and any message sizes, the
// delivered bytes are a prefix of the sent stream (no corruption, no
// reordering); the stream is complete unless the connection legitimately
// broke after exhausting its retry budget.
func TestPropertyStreamIntegrity(t *testing.T) {
	f := func(seed uint64, lossRaw, sizeRaw uint8) bool {
		loss := float64(lossRaw%31) / 100
		size := 1000 + int(sizeRaw)*500
		sim := des.New()
		conn := testConn(t, sim, 5, loss, seed, Config{})
		var got bytes.Buffer
		conn.Server.OnReceive(func(b []byte) { got.Write(b) })
		want := pattern(size, seed^0xDEAD)
		if err := conn.Client.Send(want); err != nil {
			return false
		}
		if err := sim.Run(); err != nil {
			return false
		}
		if conn.Client.broken {
			return bytes.HasPrefix(want, got.Bytes())
		}
		return bytes.Equal(got.Bytes(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: many small Sends deliver the same stream as one big Send.
func TestPropertyChunkedSendsEqualStream(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		sim := des.New()
		conn := testConn(t, sim, 2, 0.05, seed, Config{})
		var got bytes.Buffer
		conn.Server.OnReceive(func(b []byte) { got.Write(b) })
		r := rng(seed)
		var want []byte
		chunks := int(n%20) + 1
		for i := 0; i < chunks; i++ {
			c := pattern(r.IntN(4000)+1, r.Uint64())
			want = append(want, c...)
			if err := conn.Client.Send(c); err != nil {
				return false
			}
		}
		if err := sim.Run(); err != nil {
			return false
		}
		return bytes.Equal(got.Bytes(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTransfer1MBLossless(b *testing.B) {
	data := pattern(1_000_000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := des.New()
		conn := testConn(b, sim, 10, 0, 1, Config{})
		conn.Server.OnReceive(func([]byte) {})
		if err := conn.Client.Send(data); err != nil {
			b.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransfer1MBLossy(b *testing.B) {
	data := pattern(1_000_000, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := des.New()
		conn := testConn(b, sim, 10, 0.1, uint64(i), Config{})
		conn.Server.OnReceive(func([]byte) {})
		if err := conn.Client.Send(data); err != nil {
			b.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStaleDeliveryAfterResetIsDropped(t *testing.T) {
	// Packets in flight when the connection resets must not corrupt the
	// new connection's stream (generation filtering).
	sim := des.New()
	path, err := netem.NewPath(sim,
		netem.Config{Delay: stats.Constant{Value: 500}},
		netem.Config{Delay: stats.Constant{Value: 500}})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewConn(sim, path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	conn.Server.OnReceive(func(b []byte) { got.Write(b) })
	if err := conn.Client.Send([]byte("old-stream")); err != nil {
		t.Fatal(err)
	}
	// Reset while the segment is still in flight, then send new data.
	sim.Schedule(100*time.Millisecond, func() {
		conn.Reset()
		if err := conn.Client.Send([]byte("new-stream")); err != nil {
			t.Error(err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got.String() != "new-stream" {
		t.Errorf("received %q; stale pre-reset delivery leaked", got.String())
	}
}

func TestOnResetCallbacksFire(t *testing.T) {
	sim := des.New()
	path, err := netem.NewPath(sim, netem.Config{}, netem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewConn(sim, path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	conn.OnReset(func() { calls++ })
	conn.OnReset(func() { calls++ })
	conn.OnReset(nil) // ignored
	conn.Reset()
	conn.Reset()
	if calls != 4 {
		t.Errorf("reset callbacks ran %d times, want 4", calls)
	}
}

func TestCongestionWindowGrowsAfterAcks(t *testing.T) {
	// Slow start doubles the window per RTT: the second flight must be
	// larger than the first.
	sim := des.New()
	conn := testConn(t, sim, 50, 0, 31, Config{})
	conn.Server.OnReceive(func([]byte) {})
	if err := conn.Client.Send(pattern(300_000, 31)); err != nil {
		t.Fatal(err)
	}
	// First flight: the initial window, before any ack.
	if err := sim.RunUntil(90 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	first := conn.Client.Stats().SegmentsSent
	if first != initialCwnd {
		t.Fatalf("first flight = %d segments, want %d", first, initialCwnd)
	}
	// One RTT later every ack has opened two segments: the second flight
	// is twice the first.
	if err := sim.RunUntil(190 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	second := conn.Client.Stats().SegmentsSent - first
	if second != 2*first {
		t.Errorf("window did not double in slow start: %d -> %d", first, second)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferedBytesAccounting(t *testing.T) {
	sim := des.New()
	conn := testConn(t, sim, 100, 0, 33, Config{})
	conn.Server.OnReceive(func([]byte) {})
	if conn.Client.BufferedBytes() != 0 {
		t.Error("fresh endpoint has buffered bytes")
	}
	if err := conn.Client.Send(make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	if got := conn.Client.BufferedBytes(); got != 5000 {
		t.Errorf("BufferedBytes after send = %d, want 5000", got)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := conn.Client.BufferedBytes(); got != 0 {
		t.Errorf("BufferedBytes after full ack = %d, want 0", got)
	}
}

func TestInjectFailureBreaksAndResetRestores(t *testing.T) {
	sim := des.New()
	conn := testConn(t, sim, 0, 0, 1, Config{})
	var brokenErr error
	conn.Client.OnBroken(func(err error) { brokenErr = err })
	conn.Client.InjectFailure("chaos conn_reset")
	if brokenErr == nil || !errors.Is(brokenErr, ErrBroken) {
		t.Fatalf("OnBroken got %v, want ErrBroken", brokenErr)
	}
	if !conn.Client.broken {
		t.Fatal("endpoint not marked broken")
	}
	// Injecting again is a no-op (callback must not re-fire).
	brokenErr = nil
	conn.Client.InjectFailure("again")
	if brokenErr != nil {
		t.Fatal("InjectFailure re-fired OnBroken on a broken endpoint")
	}
	conn.Reset()
	if conn.Client.broken {
		t.Fatal("Reset did not clear broken state")
	}
	var got []byte
	conn.Server.OnReceive(func(b []byte) { got = append(got, b...) })
	if err := conn.Client.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("post-reset transfer got %q", got)
	}
}
