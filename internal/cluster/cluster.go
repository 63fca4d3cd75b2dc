// Package cluster assembles broker nodes into a Kafka-model cluster:
// topic/partition metadata, leader placement, follower replication,
// leader re-election on broker failure, and a wire-protocol server that
// exposes the cluster over a transport connection. The paper's testbed
// runs three brokers (Sec. III-E); that is this package's default.
package cluster

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"kafkarel/internal/broker"
	"kafkarel/internal/des"
	"kafkarel/internal/obs"
	"kafkarel/internal/wire"
)

// Config tunes the cluster.
type Config struct {
	// Brokers is the number of nodes (paper default: 3).
	Brokers int
	// Broker configures each node's flush cadence and observability.
	Broker broker.Config
	// MinISR is the minimum number of live replicas (leader included)
	// required to accept an acks=all produce.
	MinISR int
	// Obs attaches the per-run observability bundle to the cluster's
	// replication path. Broker-level instrumentation is configured via
	// Broker.Obs; the testbed sets both from the same bundle.
	Obs *obs.Obs
}

// DefaultConfig matches the paper's three-broker Docker testbed.
func DefaultConfig() Config {
	return Config{
		Brokers: 3,
		MinISR:  1,
	}
}

// interBrokerDelay is the one-way replication network delay between nodes,
// which share a datacenter network unaffected by the injected
// producer-side faults.
const interBrokerDelay = 250 * time.Microsecond

// partitionMeta is one partition's placement. It is allocated once at
// CreateTopic and never moves; only leader changes afterwards.
type partitionMeta struct {
	leader   int32
	replicas []int32
	// hosted is indexed by broker ID: the replica's handle on each broker
	// that holds one (zero elsewhere), so routing to whichever replica
	// leads now is an index, not a topic lookup on the broker.
	hosted []broker.Partition
	// internal marks a partition of an internal topic ("__" prefix: the
	// offsets and transaction-state logs), whose records carry their own
	// commit-time epochs and stay out of the data-path latency spans.
	internal bool
}

// Partition is a handle to one topic partition, resolved once
// (Cluster.Partition) and good for the cluster's life. It holds the
// placement, not a leader: every use reads the current leader, so a
// failover needs no invalidation.
type Partition struct {
	pm *partitionMeta
}

// Partition returns the handle of a topic partition; ok is false when
// the topic or partition is unknown.
func (c *Cluster) Partition(topic string, partition int32) (h Partition, ok bool) {
	pm := c.partition(topic, partition)
	return Partition{pm: pm}, pm != nil
}

// Leader returns the current leader's replica; ok is false while the
// partition is leaderless or its leader is down.
func (h Partition) Leader() (lp broker.Partition, ok bool) {
	if h.pm.leader < 0 {
		return broker.Partition{}, false
	}
	lp = h.pm.hosted[h.pm.leader]
	return lp, lp.Up()
}

// Fetch routes a fetch to the partition's current leader, as
// Cluster.HandleFetch does: a leaderless partition answers with an
// error, a leader that is down stays silent.
func (h Partition) Fetch(req wire.FetchRequest, done func(wire.FetchResponse)) {
	pm := h.pm
	if pm.leader < 0 {
		fetchUnroutable(req, done)
		return
	}
	pm.hosted[pm.leader].Fetch(req, done)
}

type topicMeta struct {
	partitions []*partitionMeta
}

// Cluster is a set of brokers plus topic metadata. Not safe for
// concurrent use; the DES is single-threaded.
type Cluster struct {
	sim     *des.Simulator
	cfg     Config
	brokers []*broker.Broker
	topics  map[string]*topicMeta
	// lastTopic/lastMeta memoise the previous partition lookup, as
	// broker.Broker does: comparing the name beats hashing it per request.
	lastTopic string
	lastMeta  *topicMeta

	cReplications   *obs.Counter
	gReplication    *obs.Gauge
	hSpanAppend     *obs.Histogram
	hSpanReplicated *obs.Histogram
	trace           *obs.Tracer
	topoHooks       []func() // run after every broker fail/crash/recover

	freeProd []*prodJob // recycled produce-routing jobs
	freeRepl []*replJob // recycled replication-delay jobs
	freeSend []*sendJob // recycled acks=all follower-send jobs
}

// prodJob carries one produce request through the cluster's asynchronous
// routing pipeline (leader append, replication fan-out, ack counting)
// without per-request closures. The request — batch records included —
// is retained until the pipeline completes, and its records themselves,
// headers and payload bytes, end up referenced by every replica's log
// (storage.Log.Append), so they must be immutable from here on (the wire
// server clones at decode into its slab; in-sim callers hand over
// slab-carved or freshly built records).
type prodJob struct {
	c          *Cluster
	pm         *partitionMeta
	leader     *broker.Broker
	req        wire.ProduceRequest
	idempotent bool
	done       func(wire.ProduceResponse)
	resp       wire.ProduceResponse // leader response, held while followers ack (acks=all)
	pending    int                  // outstanding follower acks (acks=all)
	followers  []*broker.Broker     // live-replica scratch, leader first
}

func (c *Cluster) getProd() *prodJob {
	if n := len(c.freeProd); n > 0 {
		j := c.freeProd[n-1]
		c.freeProd = c.freeProd[:n-1]
		return j
	}
	return &prodJob{c: c}
}

func (c *Cluster) putProd(j *prodJob) {
	j.pm, j.leader, j.done = nil, nil, nil
	j.req = wire.ProduceRequest{}
	j.resp = wire.ProduceResponse{}
	j.pending = 0
	for i := range j.followers {
		j.followers[i] = nil
	}
	j.followers = j.followers[:0]
	c.freeProd = append(c.freeProd, j)
}

// replJob parks one follower copy across the inter-broker delay.
type replJob struct {
	c          *Cluster
	src        *broker.Broker
	f          *broker.Broker
	req        wire.ProduceRequest
	idempotent bool
}

func (c *Cluster) getRepl() *replJob {
	if n := len(c.freeRepl); n > 0 {
		r := c.freeRepl[n-1]
		c.freeRepl = c.freeRepl[:n-1]
		return r
	}
	return &replJob{c: c}
}

func (c *Cluster) putRepl(r *replJob) {
	r.src, r.f = nil, nil
	r.req = wire.ProduceRequest{}
	c.freeRepl = append(c.freeRepl, r)
}

// sendJob parks one acks=all follower send across the inter-broker
// delay, pairing the shared prodJob with the target follower.
type sendJob struct {
	j *prodJob
	f *broker.Broker
}

func (c *Cluster) getSend() *sendJob {
	if n := len(c.freeSend); n > 0 {
		s := c.freeSend[n-1]
		c.freeSend = c.freeSend[:n-1]
		return s
	}
	return &sendJob{}
}

func (c *Cluster) putSend(s *sendJob) {
	s.j, s.f = nil, nil
	c.freeSend = append(c.freeSend, s)
}

// New builds a cluster of cfg.Brokers running nodes.
func New(sim *des.Simulator, cfg Config) (*Cluster, error) {
	if sim == nil {
		return nil, fmt.Errorf("cluster: nil simulator")
	}
	if cfg.Brokers <= 0 {
		cfg.Brokers = DefaultConfig().Brokers
	}
	if cfg.MinISR <= 0 {
		cfg.MinISR = 1
	}
	sim.DeclareDelay(interBrokerDelay) // every replication hop and its ack
	c := &Cluster{
		sim:             sim,
		cfg:             cfg,
		topics:          make(map[string]*topicMeta),
		cReplications:   cfg.Obs.Counter(obs.MReplications),
		gReplication:    cfg.Obs.Gauge(obs.MReplicationFactor),
		hSpanAppend:     cfg.Obs.Histogram(obs.MSpanAppend, obs.LatencyBounds),
		hSpanReplicated: cfg.Obs.Histogram(obs.MSpanReplicated, obs.LatencyBounds),
		trace:           cfg.Obs.Tracer(),
	}
	for i := 0; i < cfg.Brokers; i++ {
		b, err := broker.New(int32(i), sim, cfg.Broker)
		if err != nil {
			return nil, fmt.Errorf("cluster: broker %d: %w", i, err)
		}
		c.brokers = append(c.brokers, b)
	}
	return c, nil
}

// AddTopologyHook registers fn to run after every topology change —
// broker failure, unclean crash, or recovery, once leadership has been
// re-elected and logs caught up. The group coordinator uses it to
// re-materialize its offsets view from the (possibly truncated) offsets
// log; the transaction coordinator uses it to re-materialize and
// re-drive incomplete transactions. Hooks run in registration order.
func (c *Cluster) AddTopologyHook(fn func()) {
	if fn != nil {
		c.topoHooks = append(c.topoHooks, fn)
	}
}

func (c *Cluster) topologyChanged() {
	for _, fn := range c.topoHooks {
		fn()
	}
}

// Broker returns the node with the given ID, or nil.
func (c *Cluster) Broker(id int32) *broker.Broker {
	if id < 0 || int(id) >= len(c.brokers) {
		return nil
	}
	return c.brokers[id]
}

// Brokers returns the number of nodes.
func (c *Cluster) Brokers() int { return len(c.brokers) }

// CreateTopic provisions a topic with the given partition count and
// replication factor. Leaders and replicas are placed round-robin, as
// Kafka's default assignor does.
func (c *Cluster) CreateTopic(name string, partitions, replicationFactor int) error {
	if _, ok := c.topics[name]; ok {
		return fmt.Errorf("cluster: topic %q already exists", name)
	}
	if partitions <= 0 {
		return fmt.Errorf("cluster: topic %q needs at least one partition", name)
	}
	if replicationFactor <= 0 || replicationFactor > len(c.brokers) {
		return fmt.Errorf("cluster: replication factor %d outside [1, %d]", replicationFactor, len(c.brokers))
	}
	tm := &topicMeta{}
	internal := strings.HasPrefix(name, "__")
	for p := 0; p < partitions; p++ {
		pm := &partitionMeta{
			leader:   int32(p % len(c.brokers)),
			hosted:   make([]broker.Partition, len(c.brokers)),
			internal: internal,
		}
		for r := 0; r < replicationFactor; r++ {
			id := int32((p + r) % len(c.brokers))
			pm.replicas = append(pm.replicas, id)
			c.brokers[id].CreatePartition(name, int32(p))
			pm.hosted[id], _ = c.brokers[id].Partition(name, int32(p))
		}
		tm.partitions = append(tm.partitions, pm)
	}
	c.topics[name] = tm
	// Internal topics (the offsets log) keep their own replication; the
	// gauge records the data topics' factor for per-copy normalization.
	if !internal {
		c.gReplication.SetMax(int64(replicationFactor))
	}
	return nil
}

// Probe returns the cluster-wide broker state for a timeline sampler:
// the topic's leader log end offsets summed over its partitions (the
// consumer-visible log length) plus cumulative append and
// duplicate-append counts over every broker — followers included, so
// the counts reconcile against the run's broker metrics, which
// replication also feeds.
func (c *Cluster) Probe(topic string) obs.BrokerProbe {
	var pr obs.BrokerProbe
	if tm, ok := c.topics[topic]; ok {
		for p := range tm.partitions {
			leader := c.Leader(topic, int32(p))
			if leader == nil {
				continue
			}
			if log := leader.Log(topic, int32(p)); log != nil {
				pr.LogEnd += log.End()
			}
		}
	}
	for _, b := range c.brokers {
		st := b.Stats()
		pr.Appends += st.RecordsAppended
		pr.DupAppends += st.DuplicateAppends
	}
	return pr
}

// Leader returns the broker currently leading the partition, or nil when
// the topic/partition is unknown or leaderless.
func (c *Cluster) Leader(topic string, partition int32) *broker.Broker {
	pm := c.partition(topic, partition)
	if pm == nil || pm.leader < 0 {
		return nil
	}
	return c.brokers[pm.leader]
}

func (c *Cluster) partition(topic string, partition int32) *partitionMeta {
	if c.lastMeta == nil || topic != c.lastTopic {
		tm := c.topics[topic]
		if tm == nil {
			return nil
		}
		c.lastTopic, c.lastMeta = topic, tm
	}
	if partition < 0 || int(partition) >= len(c.lastMeta.partitions) {
		return nil
	}
	return c.lastMeta.partitions[partition]
}

// liveReplicasInto appends the running replicas of a partition to dst,
// leader first, and returns the result.
func (c *Cluster) liveReplicasInto(pm *partitionMeta, dst []*broker.Broker) []*broker.Broker {
	if pm.leader >= 0 && c.brokers[pm.leader].Up() {
		dst = append(dst, c.brokers[pm.leader])
	}
	for _, id := range pm.replicas {
		if id == pm.leader {
			continue
		}
		if c.brokers[id].Up() {
			dst = append(dst, c.brokers[id])
		}
	}
	return dst
}

// FailBroker stops a node cleanly and re-elects leaders for every
// partition it led, choosing the first live replica (Kafka's
// preferred-replica order). Partitions with no live replica become
// leaderless until a recovery.
func (c *Cluster) FailBroker(id int32) error {
	b := c.Broker(id)
	if b == nil {
		return fmt.Errorf("cluster: no broker %d", id)
	}
	b.Stop()
	c.demote(id)
	c.topologyChanged()
	return nil
}

// CrashBrokerUnclean kills a node without the shutdown fsync — the
// unflushed tail of each of its partition logs is destroyed (see
// broker.CrashUnclean) — and re-elects leaders as FailBroker does. With
// acks=1 this is the real Kafka data-loss scenario: records the leader
// acknowledged but never flushed nor replicated are gone for good.
func (c *Cluster) CrashBrokerUnclean(id int32) error {
	b := c.Broker(id)
	if b == nil {
		return fmt.Errorf("cluster: no broker %d", id)
	}
	b.CrashUnclean()
	c.demote(id)
	c.topologyChanged()
	return nil
}

// demote moves leadership off a dead node, partition by partition.
func (c *Cluster) demote(id int32) {
	for _, tm := range c.topics {
		for _, pm := range tm.partitions {
			if pm.leader != id {
				continue
			}
			pm.leader = -1
			for _, rid := range pm.replicas {
				if c.brokers[rid].Up() {
					pm.leader = rid
					break
				}
			}
		}
	}
}

// RecoverBroker restarts a node, catches its logs up from current
// leaders, and restores it as a leader candidate for leaderless
// partitions.
func (c *Cluster) RecoverBroker(id int32) error {
	b := c.Broker(id)
	if b == nil {
		return fmt.Errorf("cluster: no broker %d", id)
	}
	b.Start()
	for topic, tm := range c.topics {
		for p, pm := range tm.partitions {
			holdsReplica := false
			for _, rid := range pm.replicas {
				if rid == id {
					holdsReplica = true
					break
				}
			}
			if !holdsReplica {
				continue
			}
			if pm.leader == -1 {
				pm.leader = id
				continue
			}
			// Catch up from the leader: truncate local divergence and
			// take the leader's suffix, by reference.
			leader := c.brokers[pm.leader]
			src := leader.Log(topic, int32(p))
			dst := b.Log(topic, int32(p))
			if src == nil || dst == nil || leader.ID() == id {
				continue
			}
			if err := dst.CatchUp(src); err != nil {
				return fmt.Errorf("cluster: catch-up: %w", err)
			}
			// The log now mirrors the leader's, so the idempotent dedupe
			// state must too — otherwise a retry routed here after a later
			// leadership change could re-append a batch the cluster already
			// acknowledged. Kafka gets this for free by rebuilding producer
			// state from the replicated log.
			b.RestoreProducerState(topic, int32(p),
				leader.ProducerStateSnapshot(topic, int32(p)))
			// The raw-record copy above carries no batch headers, so the
			// replica cannot rebuild transaction state from it; adopt the
			// leader's view wholesale, like the producer state.
			b.RestoreTxnState(topic, int32(p),
				leader.TxnStateSnapshot(topic, int32(p)))
		}
	}
	c.topologyChanged()
	return nil
}

// StatsAll returns every broker's activity snapshot, indexed by node ID.
func (c *Cluster) StatsAll() []broker.Stats {
	out := make([]broker.Stats, len(c.brokers))
	for i, b := range c.brokers {
		out[i] = b.Stats()
	}
	return out
}

// Metadata answers a metadata request for one topic.
func (c *Cluster) Metadata(req wire.MetadataRequest) wire.MetadataResponse {
	resp := wire.MetadataResponse{Topic: req.Topic}
	tm, ok := c.topics[req.Topic]
	if !ok {
		resp.Err = wire.ErrUnknownTopicOrPartition
		return resp
	}
	for p, pm := range tm.partitions {
		resp.Partitions = append(resp.Partitions, wire.PartitionMetadata{
			Partition: int32(p),
			Leader:    pm.leader,
			Replicas:  append([]int32(nil), pm.replicas...),
		})
	}
	return resp
}

// HandleProduce routes a produce request to the partition leader,
// replicates the batch to followers, and calls done according to the
// request's acks mode:
//
//   - acks=0: the leader appends; done is never called.
//   - acks=1: done fires once the leader has appended.
//   - acks=all: done fires once every live replica has appended; if
//     fewer than MinISR replicas are live, the request fails with
//     ErrNotEnoughReplicas.
//
// A dead or missing leader produces no response for acks=0 (the bytes
// vanish, as with a crashed node) and an error response otherwise only
// when metadata is stale in a way the producer can observe — matching
// Kafka, where a connection to a dead broker simply times out. Here the
// request is silently dropped and the producer's request timer handles
// it.
func (c *Cluster) HandleProduce(req wire.ProduceRequest, done func(wire.ProduceResponse)) {
	pm := c.partition(req.Topic, req.Partition)
	if pm == nil {
		if req.Acks != wire.AcksNone && done != nil {
			done(wire.ProduceResponse{
				CorrelationID: req.CorrelationID,
				Topic:         req.Topic,
				Partition:     req.Partition,
				Err:           wire.ErrUnknownTopicOrPartition,
			})
		}
		return
	}
	if pm.leader < 0 || !c.brokers[pm.leader].Up() {
		return // leaderless or dead leader: request vanishes
	}
	leader := c.brokers[pm.leader]
	idempotent := req.Batch.Idempotent

	if req.Acks == wire.AcksAll {
		j := c.getProd()
		j.followers = c.liveReplicasInto(pm, j.followers)
		if len(j.followers) < c.cfg.MinISR {
			c.putProd(j)
			if done != nil {
				done(wire.ProduceResponse{
					CorrelationID: req.CorrelationID,
					Topic:         req.Topic,
					Partition:     req.Partition,
					Err:           wire.ErrNotEnoughReplicas,
				})
			}
			return
		}
		j.pm, j.leader, j.req, j.idempotent, j.done = pm, leader, req, idempotent, done
		leader.Produce(req, idempotent, allLeaderDone, j)
		return
	}

	// acks=0 / acks=1: leader append, async replication to followers.
	j := c.getProd()
	j.pm, j.leader, j.req, j.idempotent, j.done = pm, leader, req, idempotent, done
	leader.Produce(req, idempotent, ackLeaderDone, j)
}

// observeSpan records one cumulative record-latency sample per record
// of a successfully handled batch, measured from the record's producer
// arrival (wire.Record.Timestamp) to now. Internal topics are excluded
// (partitionMeta.internal) so commit traffic never pollutes the
// data-path latency histograms.
func (c *Cluster) observeSpan(h *obs.Histogram, j *prodJob) {
	if h == nil || j.pm.internal {
		return
	}
	now := c.sim.Now()
	for _, rec := range j.req.Batch.Records {
		h.Observe(int64(now - rec.Timestamp))
	}
}

// ackLeaderDone completes an acks=0/1 produce once the leader appended:
// fan the batch out to followers, then answer the producer.
func ackLeaderDone(a any, resp wire.ProduceResponse) {
	j := a.(*prodJob)
	c := j.c
	if resp.Err == wire.ErrNone {
		c.observeSpan(c.hSpanAppend, j)
		c.replicate(j.pm, j.leader, j.req, j.idempotent)
	}
	acks, done := j.req.Acks, j.done
	c.putProd(j)
	if acks != wire.AcksNone && done != nil {
		done(resp)
	}
}

// allLeaderDone continues an acks=all produce once the leader appended:
// send the batch to every live follower and wait for all acks.
func allLeaderDone(a any, resp wire.ProduceResponse) {
	j := a.(*prodJob)
	c := j.c
	if resp.Err == wire.ErrNone {
		c.observeSpan(c.hSpanAppend, j)
		c.joinRecovered(j)
	}
	if resp.Err != wire.ErrNone || len(j.followers) <= 1 {
		if resp.Err == wire.ErrNone {
			// No follower outstanding: the leader append is full
			// replication over the live set.
			c.observeSpan(c.hSpanReplicated, j)
		}
		done := j.done
		c.putProd(j)
		if done != nil {
			done(resp)
		}
		return
	}
	j.resp = resp
	j.pending = len(j.followers) - 1
	for _, f := range j.followers[1:] {
		c.cReplications.Inc()
		c.trace.Emit(obs.LayerCluster, obs.EvReplicate, j.req.Batch.BaseSequence, int64(j.req.Partition), int64(f.ID()), j.req.Topic)
		s := c.getSend()
		s.j, s.f = j, f
		c.sim.AfterFunc(interBrokerDelay, allSendFire, s)
	}
}

// joinRecovered adds to an acks=all batch's follower set every replica
// that is up now but was down when the batch was routed. Such a replica
// was recovered while the batch sat in the leader's service time: its
// catch-up copied a leader log that did not hold the batch yet, so unless
// it is sent the batch now it stays one record short for good — and drops
// an acknowledged record the day it is elected leader. Followers captured
// at routing time stay in the set even if they have died since: their
// dropped send leaves the request un-acked, as it always has.
func (c *Cluster) joinRecovered(j *prodJob) {
	for _, id := range j.pm.replicas {
		if b := c.brokers[id]; b.Up() && !slices.Contains(j.followers, b) {
			j.followers = append(j.followers, b)
		}
	}
}

// allSendFire delivers one acks=all follower copy after the inter-broker
// delay. A leader that died in the window never serves the replication
// fetch: the request stays un-acked (the shared prodJob is abandoned to
// the garbage collector) and the producer's request timer handles it.
func allSendFire(a any) {
	s := a.(*sendJob)
	j, f := s.j, s.f
	j.c.putSend(s)
	if !j.leader.Up() {
		return
	}
	f.Produce(j.req, j.idempotent, allFollowerDone, j)
}

// allFollowerDone schedules the follower's ack back to the leader, one
// more inter-broker delay away.
func allFollowerDone(a any, _ wire.ProduceResponse) {
	j := a.(*prodJob)
	j.c.sim.AfterFunc(interBrokerDelay, allAckFire, j)
}

// allAckFire counts one follower ack; the last one answers the producer.
func allAckFire(a any) {
	j := a.(*prodJob)
	j.pending--
	if j.pending == 0 {
		if j.resp.Err == wire.ErrNone {
			j.c.observeSpan(j.c.hSpanReplicated, j)
		}
		done, resp := j.done, j.resp
		j.c.putProd(j)
		if done != nil {
			done(resp)
		}
	}
}

// replicate copies a batch to live followers asynchronously. Delivery is
// gated on the source broker still being up when the inter-broker delay
// elapses: replication is pull-based in Kafka, and a leader that crashed
// in the window takes its un-replicated tail with it.
func (c *Cluster) replicate(pm *partitionMeta, src *broker.Broker, req wire.ProduceRequest, idempotent bool) {
	for _, id := range pm.replicas {
		if id == src.ID() {
			continue
		}
		f := c.brokers[id]
		if !f.Up() {
			continue
		}
		c.cReplications.Inc()
		c.trace.Emit(obs.LayerCluster, obs.EvReplicate, req.Batch.BaseSequence, int64(req.Partition), int64(f.ID()), req.Topic)
		r := c.getRepl()
		r.src, r.f, r.req, r.idempotent = src, f, req, idempotent
		c.sim.AfterFunc(interBrokerDelay, replicateFire, r)
	}
}

// replicateFire delivers one follower copy after the inter-broker delay.
func replicateFire(a any) {
	r := a.(*replJob)
	c, src, f, req, idempotent := r.c, r.src, r.f, r.req, r.idempotent
	c.putRepl(r)
	if !src.Up() {
		return
	}
	f.Produce(req, idempotent, nil, nil)
}

// fetchUnroutable answers a fetch of an unknown or leaderless partition.
func fetchUnroutable(req wire.FetchRequest, done func(wire.FetchResponse)) {
	if done != nil {
		done(wire.FetchResponse{
			CorrelationID: req.CorrelationID,
			Topic:         req.Topic,
			Partition:     req.Partition,
			Err:           wire.ErrUnknownTopicOrPartition,
		})
	}
}

// HandleFetch routes a fetch to the partition leader.
func (c *Cluster) HandleFetch(req wire.FetchRequest, done func(wire.FetchResponse)) {
	h, ok := c.Partition(req.Topic, req.Partition)
	if !ok {
		fetchUnroutable(req, done)
		return
	}
	h.Fetch(req, done)
}
