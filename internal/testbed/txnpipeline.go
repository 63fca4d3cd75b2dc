// Transactional consume-process-produce pipeline: the testbed for the
// exactly-once guarantees of the transaction coordinator. An idempotent
// source fills an input topic; one transactional processor per
// partition consumes a batch, transforms it, produces the result to an
// output topic and commits the consumed offset inside the same
// transaction. Chaos faults crash processors mid-transaction, start
// duplicate incarnations (zombies), and down brokers; every attempt
// leaves evidence (chaos.TxnAttempt) for the transactional invariant
// checker (chaos.VerifyTxn).
package testbed

import (
	"context"
	"fmt"
	"time"

	"kafkarel/internal/broker"
	"kafkarel/internal/chaos"
	"kafkarel/internal/consumer"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/exprun"
	"kafkarel/internal/producer"
	"kafkarel/internal/wire"
)

// Topic and group names of the transactional pipeline.
const (
	TxnInTopic  = "txn-in"
	TxnOutTopic = "txn-out"
	TxnGroup    = "txn-pipeline"
)

// Pipeline cadences: how often an idle processor re-polls, how long it
// backs off after a failed operation, and how quickly supervision
// restarts a fenced incarnation.
const (
	txnPollDelay    = 3 * time.Millisecond
	txnRetryDelay   = 10 * time.Millisecond
	txnRespawnDelay = 15 * time.Millisecond
	txnFillBatch    = 32
)

// TxnExperiment describes one transactional pipeline run.
type TxnExperiment struct {
	// Seed parameterises the run (fault-plan chains).
	Seed uint64
	// Messages is the total input record count, split across partitions.
	Messages int
	// Partitions is the input/output partition count — and the processor
	// fleet size, one transactional.id per partition (default 2).
	Partitions int
	// BatchSize is the records consumed per transaction (default 5).
	BatchSize int
	// AbortEvery makes each processor deliberately abort every Nth
	// transaction and reprocess the batch (0 = never) — the abort-path
	// workload.
	AbortEvery int
	// ReplicationFactor covers both topics, the offsets log and the
	// transaction log (default 3).
	ReplicationFactor int
	// BrokerFlushInterval opens the unclean-restart loss window (zero:
	// every append durable).
	BrokerFlushInterval time.Duration
	// Isolation is recorded by campaigns and read by nothing here: the
	// run always takes both output scans (TxnResult.OutputCommitted and
	// OutputUncommitted), and the verifier chooses between them from its
	// own input. The field stays only because the frozen bench/ sets it;
	// it goes with the next [benchmark] PR (ROADMAP 5(a)).
	Isolation wire.IsolationLevel
	// TxnTimeout is the coordinator's abort deadline for idle
	// transactions (default 250ms).
	TxnTimeout time.Duration
	// MaxSimTime is the virtual horizon (default 5s).
	MaxSimTime time.Duration
	// FaultPlan schedules chaos faults; ProcessorCrash/ProcessorZombie
	// target the pipeline's processors by partition index.
	FaultPlan chaos.Plan
}

// TxnResult is everything one transactional run measures.
type TxnResult struct {
	// Attempts is every transactional attempt's evidence, in start order.
	Attempts []chaos.TxnAttempt
	// InputKeys holds, per partition, the input keys in offset order.
	InputKeys [][]uint64
	// CommittedOffsets is the durable group offset per input partition
	// (-1 = none).
	CommittedOffsets []int64
	// OutputCommitted / OutputUncommitted are the per-partition output
	// keys visible at read_committed and read_uncommitted.
	OutputCommitted   [][]uint64
	OutputUncommitted [][]uint64
	// OutputEnd and OutputLastStable are the output partitions' high
	// watermark and last stable offset at the end of the run.
	OutputEnd        []int64
	OutputLastStable []int64
	// Incarnations counts the processor incarnations per partition.
	Incarnations []int
	// TxnStats is the transaction coordinator's activity counters.
	TxnStats coordinator.TxnStats
	// BrokerStats is every broker's counter snapshot.
	BrokerStats []broker.Stats
	// Completed reports whether every partition's input was fully
	// processed and committed.
	Completed bool
	// Duration is the simulated run time.
	Duration time.Duration
}

// RunTxn executes one transactional pipeline experiment.
func RunTxn(e TxnExperiment) (TxnResult, error) {
	return runTxnOn(des.New(), e)
}

// RunTxnCtx is RunTxn reusing an exprun worker's warm simulator, like
// RunCtx.
func RunTxnCtx(ctx context.Context, e TxnExperiment) (TxnResult, error) {
	return runTxnOn(simFor(ctx), e)
}

func runTxnOn(sim *des.Simulator, e TxnExperiment) (TxnResult, error) {
	if e.Messages <= 0 {
		return TxnResult{}, fmt.Errorf("testbed: txn message count %d <= 0", e.Messages)
	}
	err := checkOverrides([]override{
		{"Partitions", e.Partitions < 0},
		{"BatchSize", e.BatchSize < 0},
		{"AbortEvery", e.AbortEvery < 0},
		{"ReplicationFactor", e.ReplicationFactor < 0},
		{"TxnTimeout", e.TxnTimeout < 0},
		{"MaxSimTime", e.MaxSimTime < 0},
	})
	if err == nil {
		err = checkTopic(TxnInTopic, e.Partitions, 0)
	}
	if err != nil {
		return TxnResult{}, err
	}
	parts := exprun.DefInt(e.Partitions, 2)
	rf := exprun.DefInt(e.ReplicationFactor, 3)
	maxSim := exprun.DefDur(e.MaxSimTime, 5*time.Second)

	// The rig's cluster and coordinator steps, with two topics and no
	// consumer groups: the processors are the consumers here, and the
	// pipeline runs unobserved (no registry, no tracer).
	base, err := newRig(sim, nil, Calibration{}, e.BrokerFlushInterval, 0, parts, rf, TxnInTopic, TxnOutTopic)
	if err != nil {
		return TxnResult{}, fmt.Errorf("testbed: %w", err)
	}
	if err := base.joinGroups(groupSpec{offsetsRF: rf}); err != nil {
		return TxnResult{}, fmt.Errorf("testbed: %w", err)
	}
	tc, err := coordinator.NewTxn(sim, base.clst, base.co, coordinator.TxnConfig{
		TxnReplication:    rf,
		DefaultTxnTimeout: exprun.DefDur(e.TxnTimeout, 250*time.Millisecond),
	})
	if err != nil {
		return TxnResult{}, fmt.Errorf("testbed: %w", err)
	}

	r := &txnRig{
		rig: base, tc: tc, e: e,
		batch:   exprun.DefInt(e.BatchSize, 5),
		payload: make([]byte, 64),
	}
	// Keys 1..Messages assigned contiguously per partition, so input
	// offset i of partition p carries keys[p][i].
	per, extra := e.Messages/parts, e.Messages%parts
	next := uint64(1)
	for p := 0; p < parts; p++ {
		cnt := per
		if p < extra {
			cnt++
		}
		keys := make([]uint64, cnt)
		for i := range keys {
			keys[i] = next
			next++
		}
		r.keys = append(r.keys, keys)
		r.fillers = append(r.fillers, &txnFiller{rig: r, part: int32(p), keys: keys, pid: uint64(p) + 1})
		r.procs = append(r.procs, &txnProcessor{
			rig: r, part: int32(p),
			tid:    fmt.Sprintf("txn-p%d", p),
			target: int64(cnt),
		})
	}
	sim.Schedule(0, func() {
		for _, f := range r.fillers {
			f.start()
		}
		for _, tp := range r.procs {
			tp.spawn()
		}
	})
	if err := r.injectFaults(e.FaultPlan, chaos.Targets{Procs: r, Seed: e.Seed}); err != nil {
		return TxnResult{}, fmt.Errorf("testbed: txn: %w", err)
	}
	if err := r.run(maxSim); err != nil {
		return TxnResult{}, fmt.Errorf("testbed: txn: %w", err)
	}
	return r.collect(parts)
}

// txnRig is the assembled transactional pipeline. It implements
// chaos.ProcessorSet.
type txnRig struct {
	*rig
	tc       *coordinator.TxnCoordinator
	e        TxnExperiment
	batch    int
	payload  []byte
	keys     [][]uint64
	fillers  []*txnFiller
	procs    []*txnProcessor
	attempts []chaos.TxnAttempt
}

// Processors implements chaos.ProcessorSet.
func (r *txnRig) Processors() int { return len(r.procs) }

// CrashProcessor implements chaos.ProcessorSet: the current incarnation
// dies abruptly — pending operations stop, the open transaction
// dangles. A no-op if supervision already lost the incarnation.
func (r *txnRig) CrashProcessor(i int) error {
	if i < 0 || i >= len(r.procs) {
		return fmt.Errorf("testbed: processor %d outside fleet [0, %d)", i, len(r.procs))
	}
	tp := r.procs[i]
	tp.chaosDown = true
	if cur := tp.cur; cur != nil && !cur.dead {
		cur.kill()
	}
	return nil
}

// RestartProcessor implements chaos.ProcessorSet: a fresh incarnation
// whose InitProducerId fences the dead one. A no-op if supervision
// already restarted the processor.
func (r *txnRig) RestartProcessor(i int) error {
	if i < 0 || i >= len(r.procs) {
		return fmt.Errorf("testbed: processor %d outside fleet [0, %d)", i, len(r.procs))
	}
	tp := r.procs[i]
	tp.chaosDown = false
	if cur := tp.cur; cur != nil && !cur.dead {
		return nil
	}
	tp.spawn()
	return nil
}

// ZombieProcessor implements chaos.ProcessorSet: a duplicate
// incarnation starts while the old one keeps running.
func (r *txnRig) ZombieProcessor(i int) error {
	if i < 0 || i >= len(r.procs) {
		return fmt.Errorf("testbed: processor %d outside fleet [0, %d)", i, len(r.procs))
	}
	r.procs[i].chaosDown = false
	r.procs[i].spawn()
	return nil
}

func (r *txnRig) collect(parts int) (TxnResult, error) {
	res := TxnResult{
		Attempts:  r.attempts,
		InputKeys: r.keys,
		Duration:  r.sim.Now(),
		Completed: true,
	}
	for p := 0; p < parts; p++ {
		off := int64(-1)
		r.co.HandleOffsetFetch(wire.OffsetFetchRequest{
			Group: TxnGroup, Topic: TxnInTopic, Partition: int32(p),
		}, func(resp wire.OffsetFetchResponse) {
			if resp.Err == wire.ErrNone {
				off = resp.Offset
			}
		})
		res.CommittedOffsets = append(res.CommittedOffsets, off)
		if off != int64(len(r.keys[p])) {
			res.Completed = false
		}

		scan := func(iso wire.IsolationLevel) ([]uint64, error) {
			cons, err := consumer.New(r.clst, TxnOutTopic, int32(p))
			if err != nil {
				return nil, err
			}
			cons.SetIsolation(iso)
			keys := []uint64{}
			err = cons.Consume(func(run []wire.Record) { keys = appendKeys(keys, run) })
			if err != nil {
				return nil, fmt.Errorf("output partition %d at %d: %w", p, iso, err)
			}
			return keys, nil
		}
		committed, err := scan(wire.ReadCommitted)
		if err != nil {
			return TxnResult{}, fmt.Errorf("testbed: %w", err)
		}
		uncommitted, err := scan(wire.ReadUncommitted)
		if err != nil {
			return TxnResult{}, fmt.Errorf("testbed: %w", err)
		}
		res.OutputCommitted = append(res.OutputCommitted, committed)
		res.OutputUncommitted = append(res.OutputUncommitted, uncommitted)

		hwm, lso := int64(-1), int64(-1)
		if h, ok := r.clst.Partition(TxnOutTopic, int32(p)); ok {
			if lp, ok := h.Leader(); ok {
				hwm, lso = lp.End(), lp.LastStable()
			}
		}
		res.OutputEnd = append(res.OutputEnd, hwm)
		res.OutputLastStable = append(res.OutputLastStable, lso)
	}
	for _, tp := range r.procs {
		res.Incarnations = append(res.Incarnations, len(tp.instances))
	}
	res.TxnStats = r.tc.Stats()
	res.BrokerStats = r.clst.StatsAll()
	return res, nil
}

// txnFiller is the idempotent source for one input partition: batches
// carry a fixed (producer id, sequence) per input range, so re-issues
// after vanished acks or broker failovers never duplicate input records.
type txnFiller struct {
	rig   *txnRig
	part  int32
	keys  []uint64
	pid   uint64
	next  int
	timer *des.Timer
	done  bool
}

func (f *txnFiller) start() {
	f.timer = des.NewTimer(f.rig.sim, f.fire)
	f.send()
}

func (f *txnFiller) fire() {
	if !f.done {
		f.send()
	}
}

func (f *txnFiller) send() {
	if f.next >= len(f.keys) {
		f.done = true
		f.timer.Stop()
		return
	}
	n := len(f.keys) - f.next
	if n > txnFillBatch {
		n = txnFillBatch
	}
	now := f.rig.sim.Now()
	recs := make([]wire.Record, n)
	for i := range recs {
		recs[i] = wire.Record{Key: f.keys[f.next+i], Timestamp: now, Payload: f.rig.payload}
	}
	start := f.next
	f.timer.Reset(25 * time.Millisecond)
	f.rig.clst.HandleProduce(wire.ProduceRequest{
		Topic: TxnInTopic, Partition: f.part, Acks: wire.AcksAll,
		Batch: wire.RecordBatch{
			ProducerID: f.pid,
			// Sequence fixed per range: a re-issue of the same range
			// dedupes at the broker instead of appending twice.
			BaseSequence: uint64(start/txnFillBatch) + 1,
			Idempotent:   true,
			Records:      recs,
		},
	}, func(resp wire.ProduceResponse) {
		if f.done || f.next != start {
			return // stale ack of an already-advanced range
		}
		if resp.Err != wire.ErrNone {
			return // the armed timer re-issues
		}
		f.next += n
		f.send()
	})
}

// txnProcessor is one partition's consume-process-produce worker: a
// transactional.id with a history of incarnations.
type txnProcessor struct {
	rig       *txnRig
	part      int32
	tid       string
	target    int64
	instances []*procInstance
	cur       *procInstance
	chaosDown bool // chaos crashed it; only chaos restarts it
}

func (tp *txnProcessor) spawn() *procInstance {
	in := &procInstance{proc: tp, ord: len(tp.instances), attIdx: -1}
	p, err := producer.NewTxnProducer(tp.rig.sim, tp.rig.clst, tp.rig.tc, producer.TxnProducerConfig{
		TransactionalID: tp.tid,
		TxnTimeout:      tp.rig.e.TxnTimeout,
	})
	if err != nil {
		panic(err) // nil deps / empty tid: impossible by construction
	}
	in.p = p
	in.timer = des.NewTimer(tp.rig.sim, in.wake)
	in.inited, in.sent, in.offsetSent = in.onInit, in.onSent, in.onOffsetSent
	in.committed, in.aborted, in.failAborted = in.onCommitted, in.onAborted, in.onFailAborted
	in.offsetFetched, in.fetched = in.onOffsetFetched, in.onFetched
	tp.instances = append(tp.instances, in)
	in.init()
	return in
}

// What a sleeping incarnation does when its timer wakes it.
const (
	wakeNone int8 = iota
	wakeInit
	wakeFetchCommitted
	wakeLoop
)

// procInstance is one incarnation: it owns a transactional producer and
// runs the fetch → transform → produce → commit loop until it drains
// its partition, is fenced, or dies. One transaction is in flight at a
// time, so the loop's position between two answers is fields here — end,
// attIdx, next — and the callbacks it hands out are bound once, at spawn.
type procInstance struct {
	proc       *txnProcessor
	ord        int
	p          *producer.TxnProducer
	pos        int64
	end        int64 // the open attempt's input end: pos once it commits
	dead       bool
	superseded bool // another incarnation completed InitProducerId
	doneFlag   bool
	txnsDone   int
	attIdx     int // open attempt's index in rig.attempts (-1: none)
	timer      *des.Timer
	next       int8          // what wake resumes
	recs       []wire.Record // the fetched batch, copied out of the fetch answer

	inited, sent, offsetSent        func(wire.ErrorCode)
	committed, aborted, failAborted func(wire.ErrorCode)
	offsetFetched                   func(wire.OffsetFetchResponse)
	fetched                         func(wire.FetchResponse)
}

func (in *procInstance) wake() {
	if in.dead {
		return
	}
	next := in.next
	in.next = wakeNone
	switch next {
	case wakeInit:
		in.init()
	case wakeFetchCommitted:
		in.fetchCommitted()
	case wakeLoop:
		in.loop()
	}
}

func (in *procInstance) after(d time.Duration, next int8) {
	in.next = next
	in.timer.Reset(d)
}

// kill models the incarnation's process dying abruptly.
func (in *procInstance) kill() {
	in.dead = true
	in.timer.Stop()
	in.p.Kill()
}

// att returns the open attempt, nil when none.
func (in *procInstance) att() *chaos.TxnAttempt {
	if in.attIdx < 0 {
		return nil
	}
	return &in.proc.rig.attempts[in.attIdx]
}

func (in *procInstance) init() {
	if in.dead {
		return
	}
	in.p.Init(in.inited)
}

func (in *procInstance) onInit(code wire.ErrorCode) {
	if in.dead {
		return
	}
	switch {
	case code == wire.ErrNone:
		// This incarnation now holds the newest epoch: every other
		// incarnation of the transactional.id is superseded — any
		// commit they issue from here on must be fenced.
		for _, other := range in.proc.instances {
			if other != in {
				other.superseded = true
			}
		}
		in.superseded = false
		in.proc.cur = in
		in.fetchCommitted()
	case code == wire.ErrProducerFenced:
		in.stop()
	default:
		in.after(txnRetryDelay, wakeInit)
	}
}

// fetchCommitted resumes from the durable group offset — the atomic
// commit point shared with the output records.
func (in *procInstance) fetchCommitted() {
	if in.dead {
		return
	}
	in.proc.rig.co.HandleOffsetFetch(wire.OffsetFetchRequest{
		Group: TxnGroup, Topic: TxnInTopic, Partition: in.proc.part,
	}, in.offsetFetched)
}

func (in *procInstance) onOffsetFetched(resp wire.OffsetFetchResponse) {
	switch resp.Err {
	case wire.ErrNone:
		in.pos = resp.Offset
	case wire.ErrNoCommittedOffset:
		in.pos = 0
	default:
		in.after(txnPollDelay, wakeFetchCommitted)
		return
	}
	in.loop()
}

func (in *procInstance) loop() {
	if in.dead {
		return
	}
	if in.pos >= in.proc.target {
		in.doneFlag = true
		return
	}
	in.recs = in.recs[:0]
	in.proc.rig.clst.HandleFetch(wire.FetchRequest{
		Topic: TxnInTopic, Partition: in.proc.part,
		Offset: in.pos, MaxRecords: int32(in.proc.rig.batch),
	}, in.fetched)
	if len(in.recs) == 0 {
		in.after(txnPollDelay, wakeLoop)
		return
	}
	in.attempt()
}

// onFetched takes the copy of the fetched records: they are a view valid
// only inside the callback, and the transaction outlives it.
func (in *procInstance) onFetched(fr wire.FetchResponse) {
	if fr.Err == wire.ErrNone {
		in.recs = append(in.recs, fr.Records...)
	}
}

// attempt opens a transaction over the fetched batch.
func (in *procInstance) attempt() {
	if err := in.p.Begin(); err != nil {
		if in.p.Fenced() {
			in.onFenced()
		} else {
			in.after(txnRetryDelay, wakeInit)
		}
		return
	}
	rig, recs := in.proc.rig, in.recs
	now := rig.sim.Now()
	keys := make([]uint64, len(recs))
	out := make([]wire.Record, len(recs))
	for i, rec := range recs {
		keys[i] = rec.Key
		out[i] = wire.Record{Key: rec.Key, Timestamp: now, Payload: rec.Payload}
	}
	in.end = in.pos + int64(len(recs))
	in.attIdx = len(rig.attempts)
	rig.attempts = append(rig.attempts, chaos.TxnAttempt{
		Processor: in.proc.tid, Instance: in.ord, Epoch: in.p.Epoch(),
		Partition: in.proc.part, InputStart: in.pos, InputEnd: in.end,
		OutputKeys: keys, Outcome: chaos.TxnInFlight,
	})
	in.p.Send(TxnOutTopic, in.proc.part, out, in.sent)
}

func (in *procInstance) onSent(code wire.ErrorCode) {
	if in.dead {
		return
	}
	if code != wire.ErrNone {
		in.fail(code)
		return
	}
	in.p.SendOffset(TxnGroup, TxnInTopic, in.proc.part, in.end, in.offsetSent)
}

func (in *procInstance) onOffsetSent(code wire.ErrorCode) {
	if in.dead {
		return
	}
	if code != wire.ErrNone {
		in.fail(code)
		return
	}
	in.decide()
}

// decide ends the transaction: a deliberate abort every AbortEvery-th
// cycle (the batch is reprocessed), otherwise a commit.
func (in *procInstance) decide() {
	att := in.att()
	if e := in.proc.rig.e; e.AbortEvery > 0 && (in.txnsDone+1)%e.AbortEvery == 0 {
		if att != nil {
			att.Deliberate = true
		}
		in.p.Abort(in.aborted)
		return
	}
	att.CommitIssued = true
	att.SupersededAtCommit = in.superseded
	in.p.Commit(in.committed)
}

// onAborted takes the answer to a deliberate abort.
func (in *procInstance) onAborted(code wire.ErrorCode) {
	if in.dead {
		return
	}
	if code != wire.ErrNone && code != wire.ErrProducerFenced {
		in.fail(code)
		return
	}
	if att := in.att(); att != nil {
		att.Outcome = chaos.TxnAborted
		if code == wire.ErrProducerFenced {
			att.Outcome = chaos.TxnFenced
		}
		in.attIdx = -1
	}
	if code == wire.ErrProducerFenced {
		in.onFenced()
		return
	}
	in.txnsDone++
	in.loop() // same position: reprocess the batch
}

func (in *procInstance) onCommitted(code wire.ErrorCode) {
	if in.dead {
		return
	}
	att := in.att()
	switch code {
	case wire.ErrNone:
		if att != nil {
			att.Outcome = chaos.TxnCommitted
			in.attIdx = -1
		}
		in.pos = in.end
		in.txnsDone++
		in.loop()
	case wire.ErrProducerFenced:
		if att != nil {
			att.Outcome = chaos.TxnFenced
			in.attIdx = -1
		}
		in.onFenced()
	default:
		// Commit outcome unknown (answer lost): the attempt stays
		// in-flight and the incarnation re-initialises — the durable
		// group offset tells it where to resume.
		in.attIdx = -1
		in.after(txnRetryDelay, wakeInit)
	}
}

// fail handles an error on the transaction's data path: fence is
// terminal, anything else aborts the wounded transaction and
// re-initialises for a clean epoch. The attempt can never commit — no
// EndTxn(commit) was issued — so Aborted is its truthful outcome even
// when the abort answer is lost (the successor's InitProducerId or the
// coordinator timeout finishes the job).
func (in *procInstance) fail(code wire.ErrorCode) {
	if code == wire.ErrProducerFenced || in.p.Fenced() {
		if att := in.att(); att != nil {
			att.Outcome = chaos.TxnFenced
			in.attIdx = -1
		}
		in.onFenced()
		return
	}
	if att := in.att(); att != nil {
		att.Outcome = chaos.TxnAborted
		in.attIdx = -1
	}
	if in.p.InTxn() {
		in.p.Abort(in.failAborted)
		return
	}
	in.after(txnRetryDelay, wakeInit)
}

// onFailAborted re-initialises once the wounded transaction's abort is
// answered, whatever the answer.
func (in *procInstance) onFailAborted(wire.ErrorCode) {
	if in.dead {
		return
	}
	in.after(txnRetryDelay, wakeInit)
}

// onFenced retires a fenced incarnation. When the fenced incarnation
// was the current one — a coordinator timeout-abort bumped its epoch,
// not a successor — supervision restarts the processor.
func (in *procInstance) onFenced() {
	wasCurrent := in.proc.cur == in && !in.dead
	in.kill()
	if wasCurrent {
		in.proc.respawn()
	}
}

// stop retires an incarnation whose init was fenced. Usually a newer
// incarnation took over. When none is alive, the fence came from this
// incarnation's own re-issued InitProducerId: the coordinator parks an
// init until it can persist the new epoch, and a re-issue of it
// supersedes — fences — the parked copy, whose answer carries the same
// correlation id. Nobody holds the processor then, so supervision
// restarts it.
func (in *procInstance) stop() {
	in.kill()
	for _, other := range in.proc.instances {
		if !other.dead {
			return
		}
	}
	in.proc.respawn()
}

// respawn starts a fresh incarnation after txnRespawnDelay, unless chaos
// holds the processor down or a current incarnation is alive by then.
func (tp *txnProcessor) respawn() {
	if tp.chaosDown {
		return
	}
	tp.rig.sim.Schedule(tp.rig.sim.Now()+txnRespawnDelay, func() {
		if tp.chaosDown {
			return
		}
		if cur := tp.cur; cur != nil && !cur.dead {
			return
		}
		tp.spawn()
	})
}
