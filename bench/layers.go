package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"kafkarel/internal/broker"
	"kafkarel/internal/chaos"
	"kafkarel/internal/cluster"
	"kafkarel/internal/consumer"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/features"
	"kafkarel/internal/figures"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/stats"
	"kafkarel/internal/storage"
	"kafkarel/internal/testbed"
	"kafkarel/internal/transport"
	"kafkarel/internal/wire"
)

// Unit-cost drivers: each calls one layer's exported functions with
// workload-shaped inputs (200 B records, batches of 10, replication
// factor 3, the testbed's 100 Mbit/s link) from outside, under a span,
// and reports the median host time per call over a few batches. Costs
// are inclusive of the layers beneath. They do not depend on the
// workload or the seed: every traced run takes them, so that each run's
// per-layer line is complete.

const (
	recordBytes = 200
	batchSize   = 10
	// unitBatches is how many timed batches a unit cost is the median of.
	unitBatches = 5
)

// pending is the sentinel the repo's own benchmarks use for "callback
// not yet invoked".
const pending = wire.ErrorCode(0xFFFF)

func records(n int, firstKey uint64) []wire.Record {
	recs := make([]wire.Record, n)
	for i := range recs {
		recs[i] = wire.Record{Key: firstKey + uint64(i), Payload: make([]byte, recordBytes)}
	}
	return recs
}

// delays is a fixed table of pseudo-random sub-millisecond delays, so the
// des drivers shuffle the heap without timing a random generator.
var delays = func() []time.Duration {
	r := rand.New(rand.NewPCG(7, 11))
	d := make([]time.Duration, 1024)
	for i := range d {
		d[i] = time.Duration(1+r.IntN(1000)) * time.Microsecond
	}
	return d
}()

// mallocsPer returns the heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// layerDriver measures one layer's unit costs into m.
type layerDriver struct {
	layer string
	drive func(t *tracer, parent int, m map[string]float64) error
}

var layerDrivers = []layerDriver{
	{"des", driveDES},
	{"netem", driveNetem},
	{"transport", driveTransport},
	{"wire", driveWire},
	{"storage", driveStorage},
	{"broker", driveBroker},
	{"cluster", driveCluster},
	{"coordinator", driveCoordinator},
	{"consumer", driveConsumer},
	{"obs", driveObs},
	{"testbed", driveTestbed},
	{"chaos", driveChaos},
}

// --- des --------------------------------------------------------------------

func driveDES(t *tracer, parent int, m map[string]float64) error {
	fires := t.n(200000)
	for _, depth := range []int{64, 4096} {
		name := fmt.Sprintf("des.fire_ns_d%d", depth)
		m[name] = t.unit(parent, name, fires, func() (func(), error) {
			sim := des.New()
			next := 0
			var fire func(any)
			fire = func(any) {
				sim.AfterFunc(delays[next&1023], fire, nil)
				next++
			}
			for i := 0; i < depth; i++ {
				fire(nil)
			}
			// Every event reschedules itself, so the heap stays at depth and
			// the run ends on the limit.
			return func() { _ = sim.RunLimit(uint64(fires)) }, nil
		})
	}

	resets := t.n(200000)
	m["des.timer_reset_ns"] = t.unit(parent, "des.timer_reset_ns", resets, func() (func(), error) {
		sim := des.New()
		for i := 0; i < 64; i++ {
			sim.AfterFunc(time.Hour+delays[i], func(any) {}, nil)
		}
		timer := des.NewTimer(sim, func() {})
		return func() {
			for i := 0; i < resets; i++ {
				timer.Reset(delays[i&1023])
			}
			timer.Stop()
		}, nil
	})
	return nil
}

// --- netem ------------------------------------------------------------------

// linkConfig is one direction of the testbed's path: constant delay,
// 100 Mbit/s, a 1000-packet device queue, and Bernoulli loss drawn from
// its own stream.
func linkConfig(delayMs, loss float64, stream uint64) (netem.Config, error) {
	cfg := netem.Config{Delay: stats.Constant{Value: delayMs}, Bandwidth: 100e6, QueueLimit: 1000}
	if loss > 0 {
		l, err := stats.NewBernoulli(loss, rand.New(rand.NewPCG(3, stream)))
		if err != nil {
			return cfg, err
		}
		cfg.Loss = l
	}
	return cfg, nil
}

func driveNetem(t *tracer, parent int, m map[string]float64) error {
	packets := t.n(100000)
	var failed error
	for _, c := range []struct {
		name           string
		delayMs, lossP float64
	}{
		{"netem.send_ns", 1, 0},
		{"netem.send_lossy_ns", 50, 0.15},
	} {
		m[c.name] = t.unit(parent, c.name, packets, func() (func(), error) {
			sim := des.New()
			cfg, err := linkConfig(c.delayMs, c.lossP, 0)
			if err != nil {
				return nil, err
			}
			link, err := netem.NewLink(sim, cfg)
			if err != nil {
				return nil, err
			}
			deliver := func(any, bool) {}
			return func() {
				// Bursts of 512 stay under the device queue limit.
				for sent := 0; sent < packets; sent += 512 {
					for i := 0; i < 512 && sent+i < packets; i++ {
						link.SendFn(1500, deliver, nil)
					}
					if err := sim.Run(); err != nil {
						failed = err
					}
				}
			}, nil
		})
	}
	return failed
}

// --- transport --------------------------------------------------------------

func newConn(sim *des.Simulator, delayMs, loss float64) (*transport.Conn, error) {
	fwd, err := linkConfig(delayMs, loss, 1)
	if err != nil {
		return nil, err
	}
	rev, err := linkConfig(delayMs, loss, 2)
	if err != nil {
		return nil, err
	}
	path, err := netem.NewPath(sim, fwd, rev)
	if err != nil {
		return nil, err
	}
	// The testbed's socket buffer (Calibration.SocketBuffer).
	return transport.NewConn(sim, path, transport.Config{SendBufferLimit: 32 * 1024})
}

func driveTransport(t *tracer, parent int, m map[string]float64) error {
	request := make([]byte, 2048)
	var failed error
	for _, c := range []struct {
		name           string
		requests       int
		delayMs, lossP float64
	}{
		{"transport.segment_ns", 20000, 1, 0},
		{"transport.segment_lossy_ns", 4000, 50, 0.15},
	} {
		// A 2 KB request is two segments; the unit is one segment put on
		// the wire (retransmissions included), so the call count is read
		// from the endpoint after the batch.
		requests := t.n(c.requests)
		var xs []float64
		for b := 0; b < unitBatches; b++ {
			sim := des.New()
			conn, err := newConn(sim, c.delayMs, c.lossP)
			if err != nil {
				return err
			}
			received := 0
			conn.Server.OnReceive(func(chunk []byte) { received += len(chunk) })
			id := t.start(c.name, parent)
			for i := 0; i < requests; i++ {
				// Closed loop: the next request goes out when this one has
				// arrived, like a producer at max-in-flight 1.
				if err := conn.Client.Send(request); err != nil {
					failed = err
					break
				}
				if err := sim.Run(); err != nil {
					failed = err
					break
				}
			}
			segments := int(conn.Client.Stats().SegmentsSent)
			d := t.end(id, segments)
			if received != requests*len(request) {
				failed = fmt.Errorf("%s: delivered %d of %d bytes", c.name, received, requests*len(request))
			}
			if segments > 0 {
				xs = append(xs, float64(d.Nanoseconds())/float64(segments))
			}
		}
		m[c.name] = median(xs)
	}
	return failed
}

// --- wire -------------------------------------------------------------------

func driveWire(t *tracer, parent int, m map[string]float64) error {
	calls := t.n(50000)
	produce := wire.ProduceRequest{
		CorrelationID: 1, Topic: "t", Acks: wire.AcksAll,
		Batch: wire.RecordBatch{ProducerID: 1, Idempotent: true, Records: records(batchSize, 1)},
	}
	fetch := wire.FetchResponse{CorrelationID: 1, Topic: "t", HighWatermark: 64, NextOffset: 64, Records: records(64, 1)}
	produceBody := produce.Encode(nil)
	fetchBody := fetch.Encode(nil)
	frame := wire.AppendFrame(nil, wire.APIProduce, produceBody)
	dec := &wire.Decoder{Topic: "t"}
	var failed error

	scratch := make([]byte, 0, 2*len(fetchBody))
	m["wire.produce_encode_ns"] = t.unit(parent, "wire.produce_encode_ns", calls, func() (func(), error) {
		return func() {
			for i := 0; i < calls; i++ {
				scratch = produce.Encode(scratch[:0])
			}
		}, nil
	})
	m["wire.fetch_encode_ns"] = t.unit(parent, "wire.fetch_encode_ns", calls, func() (func(), error) {
		return func() {
			for i := 0; i < calls; i++ {
				scratch = fetch.Encode(scratch[:0])
			}
		}, nil
	})
	decodeProduce := func() {
		if _, err := dec.ProduceRequest(produceBody); err != nil {
			failed = err
		}
	}
	m["wire.produce_decode_ns"] = t.unit(parent, "wire.produce_decode_ns", calls, func() (func(), error) {
		return func() {
			for i := 0; i < calls; i++ {
				decodeProduce()
			}
		}, nil
	})
	m["wire.decode_allocs"] = mallocsPer(calls, decodeProduce)
	m["wire.fetch_decode_ns"] = t.unit(parent, "wire.fetch_decode_ns", calls, func() (func(), error) {
		return func() {
			for i := 0; i < calls; i++ {
				if _, err := dec.FetchResponse(fetchBody); err != nil {
					failed = err
				}
			}
		}, nil
	})
	// A frame reaches the splitter the way the transport delivers it: in
	// MSS-sized chunks.
	const mss = 1460
	m["wire.split_ns"] = t.unit(parent, "wire.split_ns", calls, func() (func(), error) {
		var sp wire.Splitter
		return func() {
			for i := 0; i < calls; i++ {
				frames := 0
				for off := 0; off < len(frame); off += mss {
					parts, err := sp.Push(frame[off:min(off+mss, len(frame))])
					if err != nil {
						failed = err
					}
					frames += len(parts)
				}
				if frames != 1 {
					failed = fmt.Errorf("wire.split: %d frames out of one", frames)
				}
			}
		}, nil
	})
	return failed
}

// --- storage ----------------------------------------------------------------

func driveStorage(t *tracer, parent int, m map[string]float64) error {
	appends := t.n(5000)
	batch := records(batchSize, 1)
	m["storage.append_ns_per_record"] = t.unit(parent, "storage.append_ns_per_record", appends*batchSize, func() (func(), error) {
		log := storage.NewLog(0)
		return func() {
			for i := 0; i < appends; i++ {
				log.Append(batch)
			}
		}, nil
	})
	allocLog := storage.NewLog(0)
	m["storage.append_allocs"] = mallocsPer(appends, func() { allocLog.Append(batch) })

	// Reads of one fetch's worth alternate between the tail (a consumer
	// keeping up) and the middle (one catching up) of a 50000-record log.
	const fetchMax = 64
	reads := t.n(20000)
	log := storage.NewLog(0)
	for i := 0; i < appends; i++ {
		log.Append(batch)
	}
	var failed error
	var scratch []storage.Entry
	m["storage.read_ns_per_record"] = t.unit(parent, "storage.read_ns_per_record", reads*fetchMax, func() (func(), error) {
		return func() {
			offsets := [2]int64{log.End() - fetchMax, log.End() / 2}
			for i := 0; i < reads; i++ {
				entries, err := log.ReadInto(offsets[i&1], fetchMax, scratch)
				if err != nil || len(entries) != fetchMax {
					failed = fmt.Errorf("storage.read: %d entries, err %v", len(entries), err)
				}
				scratch = entries
			}
		}, nil
	})
	return failed
}

// --- broker -----------------------------------------------------------------

func driveBroker(t *tracer, parent int, m map[string]float64) error {
	appends := t.n(5000)
	var failed error
	for _, c := range []struct {
		name       string
		idempotent bool
	}{
		{"broker.append_ns_per_record", false},
		{"broker.append_idem_ns_per_record", true},
	} {
		m[c.name] = t.unit(parent, c.name, appends*batchSize, func() (func(), error) {
			b, err := broker.New(1, des.New(), broker.DefaultConfig())
			if err != nil {
				return nil, err
			}
			b.CreatePartition("t", 0)
			batch := wire.RecordBatch{ProducerID: 1, Idempotent: c.idempotent, Records: records(batchSize, 1)}
			return func() {
				for i := 0; i < appends; i++ {
					batch.BaseSequence = uint64(i)
					if _, dup, code := b.Append("t", 0, batch, c.idempotent); dup || code != wire.ErrNone {
						failed = fmt.Errorf("%s: dup=%v code=%s", c.name, dup, code)
					}
				}
			}, nil
		})
	}

	const fetchMax = 64
	fetches := t.n(20000)
	m["broker.fetch_ns_per_record"] = t.unit(parent, "broker.fetch_ns_per_record", fetches*fetchMax, func() (func(), error) {
		b, err := broker.New(1, des.New(), broker.DefaultConfig())
		if err != nil {
			return nil, err
		}
		b.CreatePartition("t", 0)
		for i := 0; i < appends; i++ {
			b.Log("t", 0).Append(records(batchSize, uint64(i*batchSize)))
		}
		end := b.Log("t", 0).End()
		got := 0
		done := func(r wire.FetchResponse) { got = len(r.Records) }
		return func() {
			offsets := [2]int64{end - fetchMax, end / 2}
			for i := 0; i < fetches; i++ {
				b.HandleFetch(wire.FetchRequest{Topic: "t", Offset: offsets[i&1], MaxRecords: fetchMax}, done)
				if got != fetchMax {
					failed = fmt.Errorf("broker.fetch: %d records", got)
				}
			}
		}, nil
	})
	return failed
}

// --- cluster ----------------------------------------------------------------

func newCluster(sim *des.Simulator, partitions int) (*cluster.Cluster, error) {
	c, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return c, c.CreateTopic("t", partitions, 3)
}

// produceAll sends one acks=all batch through the cluster and runs the
// simulator until replication acknowledged it.
func produceAll(sim *des.Simulator, c *cluster.Cluster, seq uint64) error {
	code := pending
	c.HandleProduce(wire.ProduceRequest{
		Topic: "t", Acks: wire.AcksAll,
		Batch: wire.RecordBatch{ProducerID: 1, BaseSequence: seq, Records: records(batchSize, seq*batchSize)},
	}, func(r wire.ProduceResponse) { code = r.Err })
	if err := sim.Run(); err != nil {
		return err
	}
	if code != wire.ErrNone {
		return fmt.Errorf("cluster.produce: %s", code)
	}
	return nil
}

func driveCluster(t *tracer, parent int, m map[string]float64) error {
	produces := t.n(3000)
	var failed error
	m["cluster.produce_ns_per_record"] = t.unit(parent, "cluster.produce_ns_per_record", produces*batchSize, func() (func(), error) {
		sim := des.New()
		c, err := newCluster(sim, 1)
		if err != nil {
			return nil, err
		}
		return func() {
			for i := 0; i < produces; i++ {
				if err := produceAll(sim, c, uint64(i)); err != nil {
					failed = err
				}
			}
		}, nil
	})

	const fetchMax = 64
	fetches := t.n(20000)
	m["cluster.fetch_ns_per_record"] = t.unit(parent, "cluster.fetch_ns_per_record", fetches*fetchMax, func() (func(), error) {
		sim := des.New()
		c, err := newCluster(sim, 1)
		if err != nil {
			return nil, err
		}
		for i := 0; i < produces; i++ {
			if err := produceAll(sim, c, uint64(i)); err != nil {
				return nil, err
			}
		}
		end := int64(produces * batchSize)
		got := 0
		done := func(r wire.FetchResponse) { got = len(r.Records) }
		return func() {
			offsets := [2]int64{end - fetchMax, end / 2}
			for i := 0; i < fetches; i++ {
				c.HandleFetch(wire.FetchRequest{Topic: "t", Offset: offsets[i&1], MaxRecords: fetchMax}, done)
				if got != fetchMax {
					failed = fmt.Errorf("cluster.fetch: %d records", got)
				}
			}
		}, nil
	})

	// One recovery: a follower that missed 200 records comes back and
	// catches up from the leader. The outage and the writes it misses are
	// outside the span.
	const missed = 20
	cycles := t.n(50)
	var xs []float64
	for b := 0; b < unitBatches; b++ {
		sim := des.New()
		c, err := newCluster(sim, 1)
		if err != nil {
			return err
		}
		follower := (c.Leader("t", 0).ID() + 1) % int32(c.Brokers())
		seq := uint64(0)
		var spent time.Duration
		for i := 0; i < cycles; i++ {
			if err := c.FailBroker(follower); err != nil {
				return err
			}
			for j := 0; j < missed; j++ {
				if err := produceAll(sim, c, seq); err != nil {
					return err
				}
				seq++
			}
			id := t.start("cluster.recover_us", parent)
			err := c.RecoverBroker(follower)
			if err == nil {
				err = sim.Run()
			}
			spent += t.end(id, 1)
			if err != nil {
				return err
			}
		}
		if got, want := c.Broker(follower).Log("t", 0).End(), int64(seq*batchSize); got != want {
			failed = fmt.Errorf("cluster.recover: follower log end %d, want %d", got, want)
		}
		xs = append(xs, float64(spent.Microseconds())/float64(cycles))
	}
	m["cluster.recover_us"] = median(xs)
	return failed
}

// --- coordinator ------------------------------------------------------------

// The three coordinator drivers have the shapes of the package's own
// benchmarks (internal/coordinator/bench_test.go, txn_test.go).

func driveCoordinator(t *tracer, parent int, m map[string]float64) error {
	var failed error
	pump := func(sim *des.Simulator, d time.Duration) {
		if err := sim.RunUntil(sim.Now() + d); err != nil {
			failed = err
		}
	}

	commits := t.n(5000)
	m["coordinator.commit_ns"] = t.unit(parent, "coordinator.commit_ns", commits, func() (func(), error) {
		sim := des.New()
		c, err := newCluster(sim, 1)
		if err != nil {
			return nil, err
		}
		// A long session timeout keeps the member's expiry timer out of
		// the measured loop.
		co, err := coordinator.New(sim, c, coordinator.Config{SessionTimeout: time.Hour})
		if err != nil {
			return nil, err
		}
		jr := wire.JoinGroupResponse{Err: pending}
		co.HandleJoinGroup(wire.JoinGroupRequest{Group: "g", Topic: "t"}, func(r wire.JoinGroupResponse) { jr = r })
		pump(sim, 50*time.Millisecond)
		sr := wire.SyncGroupResponse{Err: pending}
		co.HandleSyncGroup(wire.SyncGroupRequest{Group: "g", MemberID: jr.MemberID, Generation: jr.Generation},
			func(r wire.SyncGroupResponse) { sr = r })
		if jr.Err != wire.ErrNone || sr.Err != wire.ErrNone {
			return nil, fmt.Errorf("coordinator.commit: join %s, sync %s", jr.Err, sr.Err)
		}
		return func() {
			for i := 0; i < commits; i++ {
				code := pending
				co.HandleOffsetCommit(wire.OffsetCommitRequest{
					Group: "g", MemberID: jr.MemberID, Generation: jr.Generation,
					Topic: "t", Offset: int64(i),
				}, func(r wire.OffsetCommitResponse) { code = r.Err })
				for code == pending && failed == nil {
					pump(sim, time.Millisecond)
				}
				if code != wire.ErrNone {
					failed = fmt.Errorf("coordinator.commit %d: %s", i, code)
				}
			}
		}, nil
	})

	// One cooperative rebalance of six members over twelve partitions:
	// everyone rejoins with what it owns, the barrier closes, everyone
	// syncs back to stable.
	const members = 6
	rebalances := t.n(200)
	perCall := t.unit(parent, "coordinator.rebalance_us", rebalances, func() (func(), error) {
		sim := des.New()
		c, err := newCluster(sim, 12)
		if err != nil {
			return nil, err
		}
		co, err := coordinator.New(sim, c, coordinator.Config{SessionTimeout: time.Hour})
		if err != nil {
			return nil, err
		}
		ids := make([]string, members)
		owned := make([][]int32, members)
		joins := make([]wire.JoinGroupResponse, members)
		round := func() {
			for i := range ids {
				r := &joins[i]
				co.HandleJoinGroup(wire.JoinGroupRequest{
					Group: "g", MemberID: ids[i], Topic: "t",
					Protocol: wire.ProtocolCooperative, OwnedPartitions: owned[i],
				}, func(resp wire.JoinGroupResponse) { *r = resp })
			}
			pump(sim, 50*time.Millisecond)
			for i := range ids {
				ids[i] = joins[i].MemberID
				sr := wire.SyncGroupResponse{Err: pending}
				co.HandleSyncGroup(wire.SyncGroupRequest{Group: "g", MemberID: ids[i], Generation: joins[i].Generation},
					func(resp wire.SyncGroupResponse) { sr = resp })
				if joins[i].Err != wire.ErrNone || sr.Err != wire.ErrNone {
					failed = fmt.Errorf("coordinator.rebalance: join %s, sync %s", joins[i].Err, sr.Err)
				}
				owned[i] = append(owned[i][:0], sr.Assigned...)
			}
		}
		round()
		return func() {
			for i := 0; i < rebalances; i++ {
				round()
			}
		}, nil
	})
	m["coordinator.rebalance_us"] = perCall / 1e3

	// One transaction: begin, a transactional batch at acks=all, a staged
	// offset, and the two-phase EndTxn.
	txns := t.n(1000)
	perCall = t.unit(parent, "coordinator.txn_cycle_us", txns, func() (func(), error) {
		sim := des.New()
		c, err := newCluster(sim, 4)
		if err != nil {
			return nil, err
		}
		co, err := coordinator.New(sim, c, coordinator.Config{})
		if err != nil {
			return nil, err
		}
		tc, err := coordinator.NewTxn(sim, c, co, coordinator.TxnConfig{DefaultTxnTimeout: time.Hour})
		if err != nil {
			return nil, err
		}
		p, err := producer.NewTxnProducer(sim, c, tc, producer.TxnProducerConfig{TransactionalID: "bench", TxnTimeout: time.Hour})
		if err != nil {
			return nil, err
		}
		initCode := pending
		p.Init(func(code wire.ErrorCode) { initCode = code })
		pump(sim, 100*time.Millisecond)
		if initCode != wire.ErrNone {
			return nil, fmt.Errorf("coordinator.txn: init %s", initCode)
		}
		recs := records(1, 1)
		return func() {
			for i := 0; i < txns; i++ {
				if err := p.Begin(); err != nil {
					failed = err
					return
				}
				cycle := pending
				p.Send("t", 0, recs, func(code wire.ErrorCode) {
					if code != wire.ErrNone {
						cycle = code
						return
					}
					p.SendOffset("g", "t", 0, int64(i+1), func(code wire.ErrorCode) {
						if code != wire.ErrNone {
							cycle = code
							return
						}
						p.Commit(func(code wire.ErrorCode) { cycle = code })
					})
				})
				for cycle == pending && failed == nil {
					pump(sim, time.Millisecond)
				}
				if cycle != wire.ErrNone {
					failed = fmt.Errorf("coordinator.txn cycle %d: %s", i, cycle)
					return
				}
			}
		}, nil
	})
	m["coordinator.txn_cycle_us"] = perCall / 1e3
	return failed
}

// --- consumer ---------------------------------------------------------------

func driveConsumer(t *tracer, parent int, m map[string]float64) error {
	// One member joins a group and drains a pre-filled four-partition
	// topic: poll, commit, pump, until nothing comes back.
	const partitions = 4
	perPartition := t.n(10000)
	var failed error
	m["consumer.poll_ns_per_record"] = t.unit(parent, "consumer.poll_ns_per_record", partitions*perPartition, func() (func(), error) {
		sim := des.New()
		c, err := newCluster(sim, partitions)
		if err != nil {
			return nil, err
		}
		key := uint64(1)
		for p := int32(0); p < partitions; p++ {
			for n := 0; n < perPartition; n += batchSize {
				recs := records(batchSize, key)
				key += batchSize
				for _, id := range []int32{0, 1, 2} {
					c.Broker(id).Log("t", p).Append(recs)
				}
			}
		}
		co, err := coordinator.New(sim, c, coordinator.Config{SessionTimeout: time.Hour})
		if err != nil {
			return nil, err
		}
		g, err := consumer.NewGroup(sim, co, c, consumer.GroupConfig{Topic: "t", SessionTimeout: time.Hour})
		if err != nil {
			return nil, err
		}
		return func() {
			if err := g.Join("c0"); err != nil {
				failed = err
				return
			}
			if err := sim.RunUntil(sim.Now() + 50*time.Millisecond); err != nil {
				failed = err
				return
			}
			drained := 0
			for {
				recs, err := g.Poll("c0", 512)
				if err != nil {
					failed = err
					return
				}
				if len(recs) == 0 {
					break
				}
				drained += len(recs)
				if err := g.Commit("c0"); err != nil {
					failed = err
					return
				}
				if err := sim.RunUntil(sim.Now() + 5*time.Millisecond); err != nil {
					failed = err
					return
				}
			}
			if drained != partitions*perPartition {
				failed = fmt.Errorf("consumer.poll: drained %d of %d", drained, partitions*perPartition)
			}
		}, nil
	})
	return failed
}

// --- obs --------------------------------------------------------------------

func driveObs(t *tracer, parent int, m map[string]float64) error {
	// One counter increment plus one latency-histogram observation: what
	// an instrumented hot path pays per record.
	calls := t.n(2000000)
	m["obs.observe_ns"] = t.unit(parent, "obs.observe_ns", calls, func() (func(), error) {
		reg := obs.NewRegistry()
		ctr := reg.Counter("bench.counter")
		hist := reg.Histogram("bench.latency", obs.LatencyBounds)
		return func() {
			for i := 0; i < calls; i++ {
				ctr.Inc()
				hist.Observe(int64(delays[i&1023]))
			}
		}, nil
	})
	return nil
}

// --- testbed ----------------------------------------------------------------

func driveTestbed(t *tracer, parent int, m map[string]float64) error {
	// A one-message experiment is almost nothing but building the rig
	// (simulator, path, connection, three brokers, producer, registry) and
	// reconciling an empty topic.
	runs := t.n(300)
	var failed error
	perCall := t.unit(parent, "testbed.build_us_per_run", runs, func() (func(), error) {
		return func() {
			for i := 0; i < runs; i++ {
				res, err := testbed.Run(testbed.Experiment{
					Features: figures.Fig7Vector(0, 1, features.SemanticsAtLeastOnce),
					Messages: 1,
					Seed:     uint64(i + 1),
				})
				if err != nil {
					failed = err
				} else if bad := checkResult(res, 1); len(bad) > 0 {
					failed = errors.New("testbed.build: " + bad[0])
				}
			}
		}, nil
	})
	m["testbed.build_us_per_run"] = perCall / 1e3
	return failed
}

// --- chaos ------------------------------------------------------------------

// The chaos driver captures the evidence of one trial of each campaign
// kind (the experiment shapes are the campaign package's) and times the
// plan generator and the four verifiers on it.

const chaosHorizon = 2 * time.Second

func chaosExperiment(plan chaos.Plan, semantics int) testbed.Experiment {
	return testbed.Experiment{
		Features: features.Vector{
			MessageSize: 100, DelayMs: 2, Semantics: semantics, BatchSize: 2,
			PollInterval: 5 * time.Millisecond, MessageTimeout: 2 * time.Second,
		},
		Messages:            chaosMessages,
		Seed:                17,
		MaxSimTime:          chaosHorizon + 10*time.Second,
		FaultPlan:           plan,
		ReplicationFactor:   3,
		OffsetsReplication:  3,
		BrokerFlushInterval: 50 * time.Millisecond,
		CaptureEvidence:     true,
		MaxInFlight:         1,
		MaxRetries:          8,
		RequestTimeout:      250 * time.Millisecond,
		RetryBackoff:        20 * time.Millisecond,
		RetryBackoffMax:     200 * time.Millisecond,
		QueueLimit:          64,
	}
}

func driveChaos(t *tracer, parent int, m map[string]float64) error {
	const planSeed = 23
	gen := chaos.GenConfig{Brokers: 3, Semantics: producer.ExactlyOnce, Horizon: chaosHorizon, MaxFaults: 5, Unclean: true, ConsumerMembers: 2}
	plans := t.n(20000)
	perCall := t.unit(parent, "chaos.plan_us", plans, func() (func(), error) {
		return func() {
			for i := 0; i < plans; i++ {
				chaos.GeneratePlan(uint64(i), gen)
			}
		}, nil
	})
	m["chaos.plan_us"] = perCall / 1e3

	// The driver's own trials must verify clean, or their cost is not the
	// cost of a passing trial.
	var violations []string
	check := func(v chaos.Verdict) {
		if !v.OK() {
			violations = append(violations, v.Violations...)
		}
	}
	verifies := t.n(200)

	// Exactly-once + E2E: Verify and VerifyE2E.
	plan := chaos.GeneratePlan(planSeed, gen)
	e := chaosExperiment(plan, features.SemanticsExactlyOnce)
	e.Partitions, e.Consumers = 2, 2
	res, err := testbed.Run(e)
	if err != nil {
		return fmt.Errorf("chaos evidence (e2e): %w", err)
	}
	acked := make(map[uint64]bool, len(res.Outcomes))
	for _, o := range res.Outcomes {
		if o.State == producer.StateDelivered || o.State == producer.StateDuplicated {
			acked[o.Key] = true
		}
	}
	e2eNs := t.unit(parent, "chaos.verify_e2e", verifies, func() (func(), error) {
		return func() {
			for i := 0; i < verifies; i++ {
				check(chaos.Verify(chaos.TrialInput{
					Semantics: producer.ExactlyOnce, MaxInFlight: 1, Replication: 3, Plan: plan,
					Completed: res.Completed, Acquired: res.Acquired, Counts: res.Producer,
					Outcomes: res.Outcomes, Consumed: res.ConsumedKeys, Report: res.Report,
					Brokers: res.BrokerStats,
				}))
				check(chaos.VerifyE2E(chaos.E2EInput{
					Semantics: producer.ExactlyOnce, OffsetsReplication: 3, Plan: plan,
					Evidence: *res.GroupEvidence, ConsumedKeys: res.GroupConsumedKeys,
					FinalCommitted: res.GroupCommitted, Regressions: res.OffsetRegressions, AckedKeys: acked,
				}))
			}
		}, nil
	})

	// Txn: VerifyTxn.
	txnPlan := chaos.GenerateTxnPlan(planSeed, chaos.TxnGenConfig{Brokers: 3, Processors: 2, Horizon: chaosHorizon, MaxFaults: 5, Unclean: true})
	txn, err := testbed.RunTxn(testbed.TxnExperiment{
		Seed: 17, Messages: chaosMessages, Partitions: 2, BatchSize: 5, AbortEvery: 4, ReplicationFactor: 3,
		BrokerFlushInterval: 50 * time.Millisecond, Isolation: wire.ReadCommitted,
		TxnTimeout: 250 * time.Millisecond, MaxSimTime: chaosHorizon + 10*time.Second, FaultPlan: txnPlan,
	})
	if err != nil {
		return fmt.Errorf("chaos evidence (txn): %w", err)
	}
	txnNs := t.unit(parent, "chaos.verify_txn", verifies, func() (func(), error) {
		return func() {
			for i := 0; i < verifies; i++ {
				check(chaos.VerifyTxn(chaos.TxnInput{
					Isolation: wire.ReadCommitted, Plan: txnPlan, Attempts: txn.Attempts, InputKeys: txn.InputKeys,
					CommittedOffsets: txn.CommittedOffsets, OutputCommitted: txn.OutputCommitted,
					OutputUncommitted: txn.OutputUncommitted, Completed: txn.Completed,
				}))
			}
		}, nil
	})

	// Coop: VerifyE2E and VerifyCoop per group, two groups of six.
	coopPlan := chaos.GenerateCoopPlan(planSeed, chaos.CoopGenConfig{Brokers: 3, Groups: 2, MembersPerGroup: 6, Horizon: chaosHorizon, MaxFaults: 5})
	ce := chaosExperiment(coopPlan, features.SemanticsAtLeastOnce)
	ce.Partitions, ce.Consumers, ce.Groups, ce.Cooperative, ce.MinISR = 12, 6, 2, true, 2
	coop, err := testbed.Run(ce)
	if err != nil {
		return fmt.Errorf("chaos evidence (coop): %w", err)
	}
	coopNs := t.unit(parent, "chaos.verify_coop", verifies, func() (func(), error) {
		return func() {
			for i := 0; i < verifies; i++ {
				for _, gr := range coop.GroupRuns {
					check(chaos.VerifyE2E(chaos.E2EInput{
						Semantics: producer.AtLeastOnce, OffsetsReplication: 3, Plan: coopPlan, Evidence: gr.Evidence,
						ConsumedKeys: gr.ConsumedKeys, FinalCommitted: gr.Committed, Regressions: coop.OffsetRegressions,
					}))
					check(chaos.VerifyCoop(chaos.CoopInput{
						OffsetsReplication: 3, Plan: coopPlan, Evidence: gr.Evidence, Regressions: coop.OffsetRegressions,
					}))
				}
			}
		}, nil
	})

	// Weighted like chaos_mix's trial mix.
	z := fullSizes
	trials := float64(2*z.chaosTrials + z.chaosCoop)
	m["chaos.verify_us_per_trial"] = (float64(z.chaosTrials)*(e2eNs+txnNs) + float64(z.chaosCoop)*coopNs) / trials / 1e3
	if len(violations) > 0 {
		return fmt.Errorf("chaos verifiers flagged the driver's own trials: %v", violations[0])
	}
	return nil
}
