package producer_test

import (
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/consumer"
	"kafkarel/internal/des"
	"kafkarel/internal/netem"
	"kafkarel/internal/producer"
	"kafkarel/internal/stats"
	"kafkarel/internal/transport"
	"kafkarel/internal/workload"
)

// rig is a complete miniature testbed: producer → transport → netem →
// cluster, plus a consumer for ground truth.
type rig struct {
	sim   *des.Simulator
	clst  *cluster.Cluster
	srv   *cluster.Server
	conn  *transport.Conn
	prod  *producer.Producer
	path  *netem.Path
	count int
}

type rigOpts struct {
	delayMs    float64
	loss       float64
	seed       uint64
	msgSize    int
	partitions int
	costs      producer.CostModel
}

func buildRig(t testing.TB, cfg producer.Config, n int, o rigOpts, popts ...producer.Option) *rig {
	t.Helper()
	sim := des.New()
	mkLink := func(s uint64) netem.Config {
		c := netem.Config{Bandwidth: 100e6}
		if o.delayMs > 0 {
			c.Delay = stats.Constant{Value: o.delayMs}
		}
		if o.loss > 0 {
			l, err := stats.NewBernoulli(o.loss, rand.New(rand.NewPCG(s, 9)))
			if err != nil {
				t.Fatal(err)
			}
			c.Loss = l
		}
		return c
	}
	path, err := netem.NewPath(sim, mkLink(o.seed), mkLink(o.seed+1))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.NewConn(sim, path, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	clst, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	parts := o.partitions
	if parts == 0 {
		parts = 1
	}
	if err := clst.CreateTopic(cfg.Topic, parts, 3); err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.NewServer(clst, conn.Server)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnReset(srv.ResetParser)
	size := o.msgSize
	if size == 0 {
		size = 200
	}
	src, err := workload.NewFixedSource(size, n)
	if err != nil {
		t.Fatal(err)
	}
	costs := o.costs
	if costs == nil {
		costs = fixedCosts{IO: 100 * time.Microsecond, Ser: 100 * time.Microsecond}
	}
	prod, err := producer.New(sim, cfg, costs, conn, src, popts...)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{sim: sim, clst: clst, srv: srv, conn: conn, prod: prod, path: path, count: n}
}

func (r *rig) run(t testing.TB) consumer.Report {
	t.Helper()
	r.prod.Start()
	if err := r.sim.RunLimit(50_000_000); err != nil {
		t.Fatalf("simulation did not quiesce: %v", err)
	}
	if !r.prod.Done() {
		t.Fatalf("producer not done: counts=%+v", r.prod.Counts())
	}
	cons, err := consumer.New(r.clst, r.prod.Config().Topic, 0)
	if err != nil {
		t.Fatal(err)
	}
	tally := consumer.NewTally(uint64(r.count))
	if err := cons.Consume(tally.Add); err != nil {
		t.Fatal(err)
	}
	return tally.Report()
}

// baseConfig mirrors the paper's experimental defaults: streaming (B=1),
// at-least-once, 1.5 s message timeout.
func baseConfig() producer.Config {
	return producer.Config{
		Topic:          "t",
		Semantics:      producer.AtLeastOnce,
		BatchSize:      1,
		MessageTimeout: 1500 * time.Millisecond,
		MaxRetries:     5,
		RetryBackoff:   20 * time.Millisecond,
		RequestTimeout: 500 * time.Millisecond,
		MaxInFlight:    5,
		QueueLimit:     500,
		LingerTime:     5 * time.Millisecond,
		ReconnectDelay: 50 * time.Millisecond,
	}
}

// fixedCosts is a deterministic producer.CostModel.
type fixedCosts struct{ IO, Ser time.Duration }

func (f fixedCosts) IOTime(int) time.Duration  { return f.IO }
func (f fixedCosts) SerTime(int) time.Duration { return f.Ser }

func TestAtLeastOnceHappyPath(t *testing.T) {
	cfg := baseConfig()
	r := buildRig(t, cfg, 100, rigOpts{delayMs: 1})
	rep := r.run(t)
	if rep.NLost != 0 || rep.NDuplicated != 0 {
		t.Errorf("report = %+v", rep)
	}
	counts := r.prod.Counts()
	if counts.Total != 100 || counts.Delivered != 100 {
		t.Errorf("counts = %+v", counts)
	}
	if counts.ByCase[producer.Case1] != 100 {
		t.Errorf("Case1 = %d, want 100", counts.ByCase[producer.Case1])
	}
}

func TestAtMostOnceHappyPath(t *testing.T) {
	cfg := baseConfig()
	cfg.Semantics = producer.AtMostOnce
	r := buildRig(t, cfg, 100, rigOpts{delayMs: 1})
	rep := r.run(t)
	if rep.NLost != 0 || rep.NDuplicated != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestExactlyOnceHappyPath(t *testing.T) {
	cfg := baseConfig()
	cfg.Semantics = producer.ExactlyOnce
	cfg.ProducerID = 77
	r := buildRig(t, cfg, 50, rigOpts{delayMs: 1})
	rep := r.run(t)
	if rep.NLost != 0 || rep.NDuplicated != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestBatchingReducesRequests(t *testing.T) {
	requests := func(batchSize int) uint64 {
		cfg := baseConfig()
		cfg.BatchSize = batchSize
		cfg.LingerTime = 50 * time.Millisecond
		r := buildRig(t, cfg, 40, rigOpts{delayMs: 1})
		rep := r.run(t)
		if rep.NLost != 0 {
			t.Fatalf("B=%d lost %d", batchSize, rep.NLost)
		}
		var total uint64
		for id := int32(0); id < 3; id++ {
			total += r.clst.Broker(id).Stats().ProduceRequests
		}
		return total
	}
	r1 := requests(1)
	r5 := requests(5)
	if r5 >= r1 {
		t.Errorf("B=5 used %d requests, B=1 used %d; batching did not amortise", r5, r1)
	}
}

func TestLingerFlushesPartialBatch(t *testing.T) {
	cfg := baseConfig()
	cfg.BatchSize = 100 // never fills from 10 messages
	cfg.LingerTime = 20 * time.Millisecond
	r := buildRig(t, cfg, 10, rigOpts{delayMs: 1})
	rep := r.run(t)
	if rep.NLost != 0 {
		t.Errorf("lost %d with linger flush", rep.NLost)
	}
}

func TestQueueExpiryLosses(t *testing.T) {
	// Service far slower than intake: at-most-once has no feedback, so
	// the queue grows and records blow their delivery budget.
	cfg := baseConfig()
	cfg.Semantics = producer.AtMostOnce
	cfg.MessageTimeout = 50 * time.Millisecond
	costs := fixedCosts{IO: time.Millisecond, Ser: 10 * time.Millisecond}
	r := buildRig(t, cfg, 200, rigOpts{delayMs: 1, costs: costs})
	rep := r.run(t)
	if rep.NLost == 0 {
		t.Fatal("no losses despite 10x overload and 50ms budget")
	}
	counts := r.prod.Counts()
	if counts.ByCase[producer.Case2] == 0 {
		t.Error("expired-before-send records not classified Case2")
	}
	if counts.Lost != rep.NLost {
		t.Errorf("producer lost %d, consumer says %d", counts.Lost, rep.NLost)
	}
}

func TestBackpressureBoundsAtLeastOnceLoss(t *testing.T) {
	// Same overload as above but with acknowledged semantics: intake
	// pauses at the queue limit, so almost nothing expires (Fig. 5's
	// at-least-once curve).
	cfg := baseConfig()
	cfg.MessageTimeout = 500 * time.Millisecond
	cfg.QueueLimit = 10
	costs := fixedCosts{IO: time.Millisecond, Ser: 10 * time.Millisecond}
	r := buildRig(t, cfg, 200, rigOpts{delayMs: 1, costs: costs})
	rep := r.run(t)
	if rep.NLost != 0 {
		t.Errorf("at-least-once with backpressure lost %d", rep.NLost)
	}
}

func TestRetryRecoversFromOutage(t *testing.T) {
	cfg := baseConfig()
	cfg.MessageTimeout = 5 * time.Second
	cfg.MaxRetries = 10
	cfg.RequestTimeout = 100 * time.Millisecond
	cfg.RetryBackoff = 50 * time.Millisecond
	r := buildRig(t, cfg, 20, rigOpts{delayMs: 1})
	// All brokers down for the first 300 ms: initial attempts vanish.
	for id := int32(0); id < 3; id++ {
		if err := r.clst.FailBroker(id); err != nil {
			t.Fatal(err)
		}
	}
	r.sim.Schedule(300*time.Millisecond, func() {
		for id := int32(0); id < 3; id++ {
			if err := r.clst.RecoverBroker(id); err != nil {
				t.Error(err)
			}
		}
	})
	rep := r.run(t)
	if rep.NLost != 0 {
		t.Fatalf("lost %d despite recovery within budget", rep.NLost)
	}
	counts := r.prod.Counts()
	if counts.ByCase[producer.Case4] == 0 {
		t.Error("no Case4 (delivered by retry) records")
	}
}

func TestRetriesExhaustedIsCase3(t *testing.T) {
	cfg := baseConfig()
	cfg.MessageTimeout = 10 * time.Second
	cfg.MaxRetries = 2
	cfg.RequestTimeout = 50 * time.Millisecond
	cfg.RetryBackoff = 10 * time.Millisecond
	r := buildRig(t, cfg, 10, rigOpts{delayMs: 1})
	for id := int32(0); id < 3; id++ {
		if err := r.clst.FailBroker(id); err != nil {
			t.Fatal(err)
		}
	}
	// Bring the cluster back long after every retry budget is spent, so
	// the consumer can still fetch (an empty log).
	r.sim.Schedule(30*time.Second, func() {
		for id := int32(0); id < 3; id++ {
			if err := r.clst.RecoverBroker(id); err != nil {
				t.Error(err)
			}
		}
	})
	rep := r.run(t)
	if rep.NLost != 10 {
		t.Fatalf("lost %d, want all 10", rep.NLost)
	}
	counts := r.prod.Counts()
	if counts.ByCase[producer.Case3] != 10 {
		t.Errorf("Case3 = %d, want 10", counts.ByCase[producer.Case3])
	}
	// τ_r retries = attempts-1 must not exceed MaxRetries.
	for _, o := range r.prod.Outcomes() {
		if o.Attempts-1 > cfg.MaxRetries {
			t.Errorf("record %d used %d retries, max %d", o.Key, o.Attempts-1, cfg.MaxRetries)
		}
	}
}

func TestSpuriousTimeoutDuplicates(t *testing.T) {
	// Round trip (160 ms) exceeds the request timeout (100 ms): every
	// first attempt is spuriously retried while the original still
	// lands — the paper's Case 5.
	cfg := baseConfig()
	cfg.RequestTimeout = 100 * time.Millisecond
	cfg.MessageTimeout = 5 * time.Second
	cfg.RetryBackoff = 5 * time.Millisecond
	cfg.MaxRetries = 3
	r := buildRig(t, cfg, 30, rigOpts{delayMs: 80})
	rep := r.run(t)
	if rep.NLost != 0 {
		t.Errorf("lost %d", rep.NLost)
	}
	if rep.NDuplicated == 0 {
		t.Error("no duplicates despite spurious retries")
	}
	if rep.Pd() <= 0 {
		t.Error("Pd = 0")
	}
}

func TestExactlyOnceSuppressesDuplicates(t *testing.T) {
	cfg := baseConfig()
	cfg.Semantics = producer.ExactlyOnce
	cfg.ProducerID = 5
	cfg.RequestTimeout = 100 * time.Millisecond
	cfg.MessageTimeout = 5 * time.Second
	cfg.RetryBackoff = 5 * time.Millisecond
	cfg.MaxRetries = 3
	r := buildRig(t, cfg, 30, rigOpts{delayMs: 80})
	rep := r.run(t)
	if rep.NDuplicated != 0 {
		t.Errorf("idempotent producer duplicated %d messages", rep.NDuplicated)
	}
	if rep.NLost != 0 {
		t.Errorf("lost %d", rep.NLost)
	}
}

func TestOutcomeLogAndLatency(t *testing.T) {
	cfg := baseConfig()
	r := buildRig(t, cfg, 25, rigOpts{delayMs: 10}, producer.WithOutcomeLog(25),
		producer.WithTimeliness(time.Millisecond))
	rep := r.run(t)
	if rep.NLost != 0 {
		t.Fatalf("lost %d", rep.NLost)
	}
	outs := r.prod.Outcomes()
	if len(outs) != 25 {
		t.Fatalf("outcomes = %d, want 25", len(outs))
	}
	for _, o := range outs {
		if o.State != producer.StateDelivered || o.Latency <= 0 {
			t.Errorf("outcome %+v", o)
		}
	}
	lat := r.prod.Latency()
	if !strings.HasPrefix(lat.String(), "n=25 ") {
		t.Errorf("latency samples: %s, want n=25", lat.String())
	}
	// Every delivery takes >= 20ms round trip >> 1ms timeliness.
	if r.prod.Stale() != 25 {
		t.Errorf("stale = %d, want 25", r.prod.Stale())
	}
}

func TestCompletionCallback(t *testing.T) {
	cfg := baseConfig()
	done := false
	r := buildRig(t, cfg, 5, rigOpts{delayMs: 1}, producer.WithCompletion(func() { done = true }))
	r.run(t)
	if !done {
		t.Error("completion callback not invoked")
	}
}

func TestReconfigure(t *testing.T) {
	cfg := baseConfig()
	r := buildRig(t, cfg, 10, rigOpts{delayMs: 1})
	next := r.prod.Config()
	next.BatchSize = 4
	next.Topic = "hijack" // must be ignored
	if err := r.prod.Reconfigure(next); err != nil {
		t.Fatal(err)
	}
	if got := r.prod.Config(); got.BatchSize != 4 || got.Topic != "t" {
		t.Errorf("config after reconfigure = %+v", got)
	}
	bad := r.prod.Config()
	bad.BatchSize = -1
	if err := r.prod.Reconfigure(bad); err == nil {
		t.Error("invalid reconfigure accepted")
	}
	rep := r.run(t)
	if rep.NLost != 0 {
		t.Errorf("lost %d after reconfigure", rep.NLost)
	}
}

func TestBrokenConnectionRecovery(t *testing.T) {
	// 100% loss breaks the connection once TCP's retry budget runs out
	// (16 timeouts, 663 s); the path stays lossy a little past that, and
	// after it heals the producer reconnects and delivers. The producer's
	// own budgets outlast the outage.
	cfg := baseConfig()
	cfg.MessageTimeout = 30 * time.Minute
	cfg.MaxRetries = 50
	cfg.RequestTimeout = time.Minute
	r := buildRig(t, cfg, 10, rigOpts{delayMs: 1})
	loss, err := stats.NewBernoulli(1, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	r.path.SetLoss(loss)
	r.sim.Schedule(670*time.Second, func() { r.path.SetLoss(nil) })
	rep := r.run(t)
	if to := r.conn.Client.Stats().Timeouts; to < 16 {
		t.Errorf("%d transport timeouts: the connection never broke", to)
	}
	if rep.NLost != 0 {
		t.Errorf("lost %d after network healed within budget", rep.NLost)
	}
}

func TestLossyNetworkEndToEnd(t *testing.T) {
	// Intake paced well below the degraded network capacity, a request
	// timeout above TCP's recovery stalls, and a bounded queue: mild loss
	// must be almost fully absorbed by retransmission and retries.
	cfg := baseConfig()
	cfg.MessageTimeout = 5 * time.Second
	cfg.MaxRetries = 8
	cfg.RequestTimeout = 1500 * time.Millisecond
	cfg.QueueLimit = 50
	cfg.PollInterval = 50 * time.Millisecond
	r := buildRig(t, cfg, 300, rigOpts{delayMs: 5, loss: 0.05, seed: 3})
	rep := r.run(t)
	// 5% loss with an intake rate well below the degraded TCP capacity:
	// retransmission and retries absorb nearly everything (the paper's
	// "TCP performs well below L≈8%" regime, Sec. IV-D).
	if rep.Pl() > 0.05 {
		t.Errorf("Pl = %v under mild loss with retries", rep.Pl())
	}
}

func TestHeavyLossCollapses(t *testing.T) {
	// Same setup at 20% loss with a fast intake: TCP recovery is
	// RTO-bound (small flows lack dup-ack cover), degraded capacity
	// falls below the intake rate, and the accumulator's delivery
	// budgets expire en masse — the paper's Fig. 7 collapse regime.
	cfg := baseConfig()
	cfg.MessageTimeout = 2 * time.Second
	cfg.MaxRetries = 8
	cfg.RequestTimeout = 1500 * time.Millisecond
	cfg.QueueLimit = 50
	cfg.PollInterval = 10 * time.Millisecond
	r := buildRig(t, cfg, 300, rigOpts{delayMs: 5, loss: 0.20, seed: 5})
	rep := r.run(t)
	if rep.Pl() < 0.20 {
		t.Errorf("Pl = %v at 20%% loss under full load; expected collapse", rep.Pl())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (consumer.Report, producer.Counts) {
		cfg := baseConfig()
		cfg.MessageTimeout = time.Second
		r := buildRig(t, cfg, 200, rigOpts{delayMs: 10, loss: 0.15, seed: 42})
		rep := r.run(t)
		return rep, r.prod.Counts()
	}
	repA, cntA := run()
	repB, cntB := run()
	if repA != repB {
		t.Errorf("reports differ: %+v vs %+v", repA, repB)
	}
	if cntA.Total != cntB.Total || cntA.Delivered != cntB.Delivered || cntA.Lost != cntB.Lost {
		t.Errorf("counts differ: %+v vs %+v", cntA, cntB)
	}
}

func TestAccountingInvariants(t *testing.T) {
	// Across a grid of adverse conditions, the books must balance:
	// every source message terminal, producer counts consistent, and the
	// consumer view compatible with the producer view.
	for _, tc := range []struct {
		name string
		loss float64
		sem  producer.Semantics
	}{
		{"amo-clean", 0, producer.AtMostOnce},
		{"alo-clean", 0, producer.AtLeastOnce},
		{"amo-lossy", 0.2, producer.AtMostOnce},
		{"alo-lossy", 0.2, producer.AtLeastOnce},
		{"eo-lossy", 0.2, producer.ExactlyOnce},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.Semantics = tc.sem
			if tc.sem == producer.ExactlyOnce {
				cfg.ProducerID = 9
			}
			cfg.MessageTimeout = time.Second
			const n = 150
			r := buildRig(t, cfg, n, rigOpts{delayMs: 5, loss: tc.loss, seed: 7})
			rep := r.run(t)
			counts := r.prod.Counts()
			if counts.Total != n {
				t.Errorf("total = %d, want %d", counts.Total, n)
			}
			if counts.Delivered+counts.Lost != counts.Total {
				t.Errorf("delivered %d + lost %d != total %d", counts.Delivered, counts.Lost, counts.Total)
			}
			var byCase uint64
			for _, v := range counts.ByCase {
				byCase += v
			}
			if byCase != counts.Total {
				t.Errorf("case sum %d != total %d", byCase, counts.Total)
			}
			if rep.Distinct+rep.NLost != n {
				t.Errorf("distinct %d + lost %d != %d", rep.Distinct, rep.NLost, n)
			}
			if rep.Foreign != 0 {
				t.Errorf("foreign keys: %d", rep.Foreign)
			}
			// The consumer can only hold keys the producer attempted.
			if rep.Distinct > counts.Total {
				t.Errorf("consumer has more keys than source")
			}
		})
	}
}
