// Package coordinator implements a broker-side consumer-group
// coordinator modeled on Kafka's __consumer_offsets design. Offset
// commits are records appended to a compacted, replicated internal
// offsets log (an ordinary cluster topic, so it inherits replication,
// leader election, and unclean-restart truncation); group membership
// runs a JoinGroup/SyncGroup/Heartbeat protocol with monotonically
// increasing generation ids; and commits or fetches from a stale
// generation are fenced with ILLEGAL_GENERATION / UNKNOWN_MEMBER_ID.
//
// Durability follows the offsets log, not the coordinator process:
// membership and generations are soft state (real Kafka rebuilds them
// by forcing a rejoin after coordinator failover), while the committed
// offsets the group would resume from are exactly as durable as the
// offsets topic's replication settings. After any broker failure,
// unclean crash, or recovery the coordinator re-materializes its offset
// cache from the current offsets-log leader; a commit that the log lost
// (unclean restart of an under-replicated offsets partition) rolls the
// group visibly backwards, which the chaos checker classifies or flags
// according to the configured semantics.
package coordinator

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/des"
	"kafkarel/internal/obs"
	"kafkarel/internal/storage"
	"kafkarel/internal/wire"
)

// offsetsTopic is the internal offsets-log topic name.
const offsetsTopic = "__consumer_offsets"

// rebalanceDelay is the cadence at which a pending rebalance checks
// whether every member has rejoined. It also bounds how quickly an
// all-members-ready rebalance completes. A rebalance waits at most
// Config.SessionTimeout for stragglers before evicting them.
const rebalanceDelay = 5 * time.Millisecond

// Config tunes the coordinator.
type Config struct {
	// OffsetsReplication is the offsets topic's replication factor
	// (default 3, every broker of the cluster: Kafka's
	// offsets.topic.replication.factor spirit). Running it at 1 under
	// unclean restarts is how committed offsets get lost — deliberately
	// configurable for chaos campaigns.
	OffsetsReplication int
	// SessionTimeout is the default member session timeout when a join
	// does not specify one (default 150ms of virtual time).
	SessionTimeout time.Duration
	// Obs receives the rebalance-duration histogram (entering
	// PreparingRebalance to the generation bump). Nil disables it.
	Obs *obs.Obs
}

func (c *Config) applyDefaults() {
	if c.OffsetsReplication <= 0 {
		c.OffsetsReplication = 3
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 150 * time.Millisecond
	}
}

// Stats counts coordinator activity for scorecards and invariants.
type Stats struct {
	Joins              uint64 // join requests admitted
	Leaves             uint64 // clean departures
	Rebalances         uint64 // completed rebalances (generation bumps)
	SessionExpirations uint64 // members evicted by session timeout
	Evictions          uint64 // members dropped for missing a rebalance
	Commits            uint64 // offset commits durably acknowledged
	CommitFailures     uint64 // commits that failed after passing fencing
	FencedCommits      uint64 // commits rejected by generation/member fencing
	FencedFetches      uint64 // fenced offset fetches rejected
	OffsetsAppended    uint64 // records appended to the offsets log
	OffsetRegressions  uint64 // committed offsets that moved backwards on re-materialization
	CoopFollowUps      uint64 // cooperative second-phase rebalances distributing freed partitions
}

// GroupStats counts one group's share of the coordinator activity —
// the multi-group fan-out scorecard surface. The fleet-wide Stats sum
// these across groups (plus the offsets-log counters, which are
// coordinator-global).
type GroupStats struct {
	Joins              uint64
	Leaves             uint64
	Rebalances         uint64
	SessionExpirations uint64
	Evictions          uint64
	CoopFollowUps      uint64
}

// OffsetRegression records one committed offset that re-materialized
// below its previous value after a topology change — the observable
// form of offsets-log data loss. After == -1 means the key vanished
// entirely.
type OffsetRegression struct {
	Group     string
	Topic     string
	Partition int32
	Before    int64
	After     int64
}

type groupState int8

const (
	stateEmpty groupState = iota
	statePreparingRebalance
	stateCompletingRebalance
	stateStable
)

func (s groupState) String() string {
	switch s {
	case stateEmpty:
		return "Empty"
	case statePreparingRebalance:
		return "PreparingRebalance"
	case stateCompletingRebalance:
		return "CompletingRebalance"
	case stateStable:
		return "Stable"
	default:
		return fmt.Sprintf("state(%d)", int8(s))
	}
}

// member is one group member's coordinator-side state.
type member struct {
	id             string
	sessionTimeout time.Duration
	timer          *des.Timer // session expiry
	assigned       []int32    // current-generation assignment
	protocol       uint8      // rebalance protocol from the last join
	owned          []int32    // partitions the member reported owning at its last join
	joined         bool       // rejoined the pending rebalance
	synced         bool       // fetched the current generation's assignment
	pendingJoin    func(wire.JoinGroupResponse)
	corrJoin       uint32 // correlation id of the parked join
}

// group is one consumer group's state machine.
type group struct {
	co           *Coordinator
	id           string
	topic        string
	partitions   int32
	state        groupState
	generation   int32
	members      map[string]*member
	nextMemberID int
	rebalanceTmr *des.Timer
	joinDeadline time.Duration // virtual-time cap for the pending rebalance
	// needsFollowUp marks a cooperative phase-1 assignment that withheld
	// partitions pending revocation; once the group stabilises the
	// coordinator immediately rebalances again to distribute them.
	needsFollowUp bool
	gstats        GroupStats
	// rebalanceAt stamps entry into PreparingRebalance; completeJoin
	// observes now-rebalanceAt as the rebalance-duration span.
	rebalanceAt time.Duration
}

type offsetKey struct {
	group     string
	topic     string
	partition int32
}

type offsetEntry struct {
	offset     int64
	generation int32
}

// Coordinator owns every group's membership state machine and the
// durable offsets log. Not safe for concurrent use; the DES is
// single-threaded.
type Coordinator struct {
	sim    *des.Simulator
	clst   *cluster.Cluster
	cfg    Config
	groups map[string]*group
	// offsets is the materialized (compacted) view of the offsets log:
	// last write per (group, topic, partition) that the log acknowledged.
	offsets     map[offsetKey]offsetEntry
	stats       Stats
	regressions []OffsetRegression
	log         logAppender // offsets-log appends

	commits des.FreeList[commitJob] // recycled commit pipeline jobs

	hRebalance *obs.Histogram // rebalance duration span (nil-safe)
}

// commitJob carries one offset commit through the offsets-log produce
// pipeline without per-commit closures: the produce callback is built
// once per pooled job and reused.
type commitJob struct {
	co   *Coordinator
	key  offsetKey
	rec  commitRecord
	corr uint32
	done func(wire.OffsetCommitResponse)
	fire func(wire.ProduceResponse) // bound once; reused across reuses
}

func (co *Coordinator) getCommit() *commitJob {
	j := co.commits.Get()
	if j.fire == nil {
		j.co = co
		j.fire = j.produceDone
	}
	return j
}

func (co *Coordinator) putCommit(j *commitJob) {
	j.done = nil
	j.key = offsetKey{}
	j.rec = commitRecord{}
	co.commits.Put(j)
}

// New builds a coordinator over the cluster, creating the internal
// offsets topic, and registers itself for topology-change
// re-materialization (cluster.AddTopologyHook).
func New(sim *des.Simulator, clst *cluster.Cluster, cfg Config) (*Coordinator, error) {
	if sim == nil {
		return nil, fmt.Errorf("coordinator: nil simulator")
	}
	if clst == nil {
		return nil, fmt.Errorf("coordinator: nil cluster")
	}
	cfg.applyDefaults()
	if err := clst.CreateTopic(offsetsTopic, 1, cfg.OffsetsReplication); err != nil {
		return nil, fmt.Errorf("coordinator: offsets topic: %w", err)
	}
	co := &Coordinator{
		sim:     sim,
		clst:    clst,
		cfg:     cfg,
		groups:  make(map[string]*group),
		offsets: make(map[offsetKey]offsetEntry),
		log:     logAppender{clst: clst},
	}
	if cfg.Obs != nil {
		co.hRebalance = cfg.Obs.Histogram(obs.MRebalanceNs, obs.LatencyBounds)
	}
	clst.AddTopologyHook(co.Rematerialize)
	return co, nil
}

// Config returns the effective (defaulted) configuration.
func (co *Coordinator) Config() Config { return co.cfg }

// Stats returns the activity counters.
func (co *Coordinator) Stats() Stats { return co.stats }

// GroupStats returns one group's activity counters (zero for an
// unknown group).
func (co *Coordinator) GroupStats(groupID string) GroupStats {
	if g, ok := co.groups[groupID]; ok {
		return g.gstats
	}
	return GroupStats{}
}

// Regressions returns every committed-offset regression observed when
// re-materializing after topology changes, in detection order.
func (co *Coordinator) Regressions() []OffsetRegression {
	out := make([]OffsetRegression, len(co.regressions))
	copy(out, co.regressions)
	return out
}

// available reports whether the offsets log can serve reads and writes
// — its partition has a live leader.
func (co *Coordinator) available() bool {
	return co.clst.Leader(offsetsTopic, 0) != nil
}

// HandleJoinGroup admits (or re-admits) a member. done fires when the
// resulting rebalance completes — possibly synchronously, possibly
// after the join window — with the new generation and the full member
// list. An empty request MemberID asks the coordinator to assign one.
func (co *Coordinator) HandleJoinGroup(req wire.JoinGroupRequest, done func(wire.JoinGroupResponse)) {
	fail := func(code wire.ErrorCode) {
		if done != nil {
			done(wire.JoinGroupResponse{CorrelationID: req.CorrelationID, Group: req.Group, Err: code})
		}
	}
	if req.Group == "" {
		fail(wire.ErrUnknownMemberID)
		return
	}
	g, ok := co.groups[req.Group]
	if !ok {
		// A new group binds to the topic of its first join.
		n, ok := co.clst.PartitionCount(req.Topic)
		if !ok {
			fail(wire.ErrUnknownTopicOrPartition)
			return
		}
		g = &group{
			co:         co,
			id:         req.Group,
			topic:      req.Topic,
			partitions: int32(n),
			members:    make(map[string]*member),
		}
		co.groups[req.Group] = g
	}
	if req.Topic != g.topic {
		fail(wire.ErrUnknownTopicOrPartition)
		return
	}
	id := req.MemberID
	if id == "" {
		id = fmt.Sprintf("%s-%d", g.id, g.nextMemberID)
		g.nextMemberID++
	}
	m, known := g.members[id]
	if !known {
		m = &member{id: id}
		mm := m
		m.timer = des.NewTimer(co.sim, func() { g.expireSession(mm) })
		g.members[id] = m
		co.stats.Joins++
		g.gstats.Joins++
	}
	m.sessionTimeout = req.SessionTimeout
	if m.sessionTimeout <= 0 {
		m.sessionTimeout = co.cfg.SessionTimeout
	}
	m.timer.Reset(m.sessionTimeout)
	m.protocol = req.Protocol
	m.owned = append(m.owned[:0], req.OwnedPartitions...)
	// Park the join; it completes when the rebalance barrier opens. A
	// second join from the same member supersedes the first.
	if m.pendingJoin != nil {
		prev := m.pendingJoin
		prev(wire.JoinGroupResponse{
			CorrelationID: req.CorrelationID, Group: g.id, MemberID: id,
			Err: wire.ErrRebalanceInProgress,
		})
	}
	m.pendingJoin = done
	m.joined = true
	m.corrJoin = req.CorrelationID
	g.prepareRebalance()
}

// HandleSyncGroup returns the member's partition assignment for the
// generation established by the preceding join round.
func (co *Coordinator) HandleSyncGroup(req wire.SyncGroupRequest, done func(wire.SyncGroupResponse)) {
	if done == nil {
		return
	}
	resp := wire.SyncGroupResponse{CorrelationID: req.CorrelationID, Group: req.Group}
	g, ok := co.groups[req.Group]
	if !ok {
		resp.Err = wire.ErrUnknownMemberID
		done(resp)
		return
	}
	m, ok := g.members[req.MemberID]
	if !ok {
		resp.Err = wire.ErrUnknownMemberID
		done(resp)
		return
	}
	if req.Generation != g.generation {
		resp.Err = wire.ErrIllegalGeneration
		done(resp)
		return
	}
	if g.state == statePreparingRebalance {
		resp.Err = wire.ErrRebalanceInProgress
		done(resp)
		return
	}
	m.timer.Reset(m.sessionTimeout)
	followUp := false
	if !m.synced {
		m.synced = true
		if g.state == stateCompletingRebalance && g.allSynced() {
			g.state = stateStable
			followUp = g.needsFollowUp
			g.needsFollowUp = false
		}
	}
	resp.Generation = g.generation
	resp.Assigned = append([]int32(nil), m.assigned...)
	done(resp)
	if followUp {
		// Cooperative phase 2: the stabilised generation revoked the
		// moving partitions; rebalance again right away so their new
		// owners pick them up. Members learn via heartbeat.
		co.stats.CoopFollowUps++
		g.gstats.CoopFollowUps++
		g.prepareRebalance()
	}
}

// HandleHeartbeat refreshes a member's session and reports pending
// rebalances: ErrRebalanceInProgress tells the member to rejoin.
func (co *Coordinator) HandleHeartbeat(req wire.HeartbeatRequest, done func(wire.HeartbeatResponse)) {
	if done == nil {
		return
	}
	resp := wire.HeartbeatResponse{CorrelationID: req.CorrelationID}
	g, ok := co.groups[req.Group]
	if !ok {
		resp.Err = wire.ErrUnknownMemberID
		done(resp)
		return
	}
	m, ok := g.members[req.MemberID]
	if !ok {
		resp.Err = wire.ErrUnknownMemberID
		done(resp)
		return
	}
	m.timer.Reset(m.sessionTimeout)
	switch {
	case g.state == statePreparingRebalance:
		resp.Err = wire.ErrRebalanceInProgress
	case req.Generation != g.generation:
		resp.Err = wire.ErrIllegalGeneration
	}
	done(resp)
}

// HandleLeaveGroup removes a member cleanly and rebalances immediately.
func (co *Coordinator) HandleLeaveGroup(req wire.LeaveGroupRequest, done func(wire.LeaveGroupResponse)) {
	resp := wire.LeaveGroupResponse{CorrelationID: req.CorrelationID}
	g, ok := co.groups[req.Group]
	if !ok {
		resp.Err = wire.ErrUnknownMemberID
	} else if m, ok := g.members[req.MemberID]; !ok {
		resp.Err = wire.ErrUnknownMemberID
	} else {
		co.stats.Leaves++
		g.gstats.Leaves++
		g.removeMember(m)
		g.prepareRebalance()
	}
	if done != nil {
		done(resp)
	}
}

// HandleOffsetCommit fences the commit against the group's generation,
// appends it to the replicated offsets log, and calls done when the log
// acknowledges (or the append fails). The materialized offset moves
// only on acknowledgement: a commit the log never made durable is never
// served to a fetch.
func (co *Coordinator) HandleOffsetCommit(req wire.OffsetCommitRequest, done func(wire.OffsetCommitResponse)) {
	fail := func(code wire.ErrorCode) {
		if done != nil {
			done(wire.OffsetCommitResponse{
				CorrelationID: req.CorrelationID, Group: req.Group,
				Topic: req.Topic, Partition: req.Partition, Err: code,
			})
		}
	}
	g, ok := co.groups[req.Group]
	if !ok {
		co.stats.FencedCommits++
		fail(wire.ErrUnknownMemberID)
		return
	}
	// Generation fencing runs before the member-existence check: a member
	// evicted by session timeout whose in-flight commit arrives after the
	// resulting rebalance must see ILLEGAL_GENERATION — the signal that
	// its generation's partition ownership is gone and the offset must not
	// land — not UNKNOWN_MEMBER_ID, which clients treat as "rejoin fresh
	// and retry the commit".
	if req.Generation != g.generation {
		co.stats.FencedCommits++
		fail(wire.ErrIllegalGeneration)
		return
	}
	m, ok := g.members[req.MemberID]
	if !ok {
		co.stats.FencedCommits++
		fail(wire.ErrUnknownMemberID)
		return
	}
	// Commits during PreparingRebalance are allowed for current-generation
	// members (KAFKA-4600): that is the pre-rejoin flush and cooperative
	// revoke-then-commit window. But a commit that raced the join barrier
	// itself — the generation already bumped, the member has joined and
	// not yet learned its assignment — is rejected with
	// REBALANCE_IN_PROGRESS, Kafka's signal that the commit was not
	// materialized and must be retried after the rebalance completes.
	// Never silently dropped: the response always fires.
	if g.state == stateCompletingRebalance && !m.synced {
		fail(wire.ErrRebalanceInProgress)
		return
	}
	if !co.available() {
		fail(wire.ErrCoordinatorNotAvailable)
		return
	}
	m.timer.Reset(m.sessionTimeout)
	j := co.getCommit()
	j.key = offsetKey{group: req.Group, topic: req.Topic, partition: req.Partition}
	j.rec = commitRecord{
		Group: req.Group, Topic: req.Topic, Partition: req.Partition,
		Offset: req.Offset, Generation: req.Generation,
	}
	j.corr = req.CorrelationID
	j.done = done
	co.appendCommit(j)
}

// appendCommit sends a filled commit job's record to the offsets log;
// j.fire runs when the log answers.
func (co *Coordinator) appendCommit(j *commitJob) {
	co.log.scratch = appendCommitRecord(co.log.scratch[:0], j.rec)
	co.log.append(wire.ProduceRequest{
		Topic: offsetsTopic,
		Acks:  wire.AcksAll,
	}, wire.Record{
		Key:       compactionKey(j.key.group, j.key.topic, j.key.partition),
		Timestamp: co.sim.Now(),
		Payload:   co.log.scratch,
	}, j.fire)
}

// produceDone completes a commit once the offsets log answered.
func (j *commitJob) produceDone(resp wire.ProduceResponse) {
	co := j.co
	out := wire.OffsetCommitResponse{
		CorrelationID: j.corr, Group: j.key.group,
		Topic: j.key.topic, Partition: j.key.partition, Err: resp.Err,
	}
	if resp.Err == wire.ErrNone {
		co.stats.Commits++
		co.stats.OffsetsAppended++
		co.offsets[j.key] = offsetEntry{offset: j.rec.Offset, generation: j.rec.Generation}
	} else {
		co.stats.CommitFailures++
	}
	done := j.done
	co.putCommit(j)
	if done != nil {
		done(out)
	}
}

// CommitTxnOffset durably writes a transaction's decided offset commit
// into the offsets log, bypassing the group's generation fencing: for
// transactional commits the fencing authority is the producer epoch,
// which the transaction coordinator has already checked by the time the
// transaction reaches its commit phase (Kafka's TxnOffsetCommit path).
// The materialized offset moves only when the log acknowledges, exactly
// like a consumer commit.
func (co *Coordinator) CommitTxnOffset(group, topic string, partition int32, offset int64, done func(wire.OffsetCommitResponse)) {
	if !co.available() {
		if done != nil {
			done(wire.OffsetCommitResponse{
				Group: group, Topic: topic, Partition: partition, Err: wire.ErrCoordinatorNotAvailable,
			})
		}
		return
	}
	gen := int32(-1)
	if g, ok := co.groups[group]; ok {
		gen = g.generation
	}
	j := co.getCommit()
	j.key = offsetKey{group: group, topic: topic, partition: partition}
	j.rec = commitRecord{Group: group, Topic: topic, Partition: partition, Offset: offset, Generation: gen}
	j.corr = 0
	j.done = done
	co.appendCommit(j)
}

// HandleOffsetFetch serves the committed offset for one partition from
// the materialized offsets view. Fetches carrying a member id are
// generation-fenced like commits; administrative fetches (empty member
// id) are not. A partition with no commit answers ErrNoCommittedOffset.
func (co *Coordinator) HandleOffsetFetch(req wire.OffsetFetchRequest, done func(wire.OffsetFetchResponse)) {
	if done == nil {
		return
	}
	resp := wire.OffsetFetchResponse{
		CorrelationID: req.CorrelationID, Group: req.Group,
		Topic: req.Topic, Partition: req.Partition,
	}
	if req.MemberID != "" {
		g, ok := co.groups[req.Group]
		if !ok {
			co.stats.FencedFetches++
			resp.Err = wire.ErrUnknownMemberID
			done(resp)
			return
		}
		if _, ok := g.members[req.MemberID]; !ok {
			co.stats.FencedFetches++
			resp.Err = wire.ErrUnknownMemberID
			done(resp)
			return
		}
		if req.Generation != g.generation {
			co.stats.FencedFetches++
			resp.Err = wire.ErrIllegalGeneration
			done(resp)
			return
		}
	}
	if !co.available() {
		resp.Err = wire.ErrCoordinatorNotAvailable
		done(resp)
		return
	}
	e, ok := co.offsets[offsetKey{group: req.Group, topic: req.Topic, partition: req.Partition}]
	if !ok {
		resp.Err = wire.ErrNoCommittedOffset
		done(resp)
		return
	}
	resp.Offset = e.offset
	resp.Generation = e.generation
	done(resp)
}

// Rematerialize rebuilds the compacted offsets view from the current
// offsets-log leader, recording any committed offset that moved
// backwards (or vanished) — the observable consequence of offsets-log
// data loss after an unclean restart. The cluster invokes it after
// every broker fail/crash/recover; it is idempotent and cheap when
// nothing changed.
func (co *Coordinator) Rematerialize() {
	leader := co.clst.Leader(offsetsTopic, 0)
	if leader == nil {
		// Leaderless offsets partition: the coordinator is unavailable
		// (commits and fetches fail fast) but keeps its cache — real
		// coordinators reload only once the log is back.
		return
	}
	log := leader.Log(offsetsTopic, 0)
	if log == nil {
		return
	}
	fresh := make(map[offsetKey]offsetEntry, len(co.offsets))
	ok := true
	// The log holds a few groups and topics in long runs of the same
	// pair: interning each record against the previous one's strings
	// leaves the scan allocating one string per change of run.
	var group, topic string
	log.Scan(func(e storage.Entry) bool {
		rec, err := decodeCommitRecord(e.Record.Payload, group, topic)
		if err != nil {
			ok = false
			return false
		}
		group, topic = rec.Group, rec.Topic
		// Last write wins: scanning in log order is compaction.
		fresh[offsetKey{group: rec.Group, topic: rec.Topic, partition: rec.Partition}] =
			offsetEntry{offset: rec.Offset, generation: rec.Generation}
		return true
	})
	if !ok {
		return // corrupt record: keep the old view rather than lose it
	}
	// Diff old vs new, in deterministic key order, recording regressions.
	keys := make([]offsetKey, 0, len(co.offsets))
	for k := range co.offsets {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b offsetKey) int {
		return cmp.Or(strings.Compare(a.group, b.group), strings.Compare(a.topic, b.topic), cmp.Compare(a.partition, b.partition))
	})
	for _, k := range keys {
		old := co.offsets[k]
		now, ok := fresh[k]
		if ok && now.offset >= old.offset {
			continue
		}
		after := int64(-1)
		if ok {
			after = now.offset
		}
		co.stats.OffsetRegressions++
		co.regressions = append(co.regressions, OffsetRegression{
			Group: k.group, Topic: k.topic, Partition: k.partition,
			Before: old.offset, After: after,
		})
	}
	co.offsets = fresh
}
