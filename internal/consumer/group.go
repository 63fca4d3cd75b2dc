package consumer

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/obs"
	"kafkarel/internal/wire"
)

// ErrNoCommit is returned by Committed for a partition the group has
// never durably committed an offset for. Callers must distinguish it
// from offset 0, which is a real committed position ("consumed
// nothing, durably").
var ErrNoCommit = errors.New("consumer: no committed offset")

// Group is a consumer group running against the broker-side group
// coordinator: members join through JoinGroup/SyncGroup, hold their
// membership with heartbeats, poll their assigned partitions, and
// commit offsets to the coordinator's replicated offsets log. Nothing
// is remembered group-locally across a rebalance except what the
// offsets log serves back — a committed offset the log lost is lost
// here too, which is exactly the behaviour the chaos checker audits.
//
// A group runs in one of two styles sharing the same protocol code:
//
//   - Driven (Config.Auto): members are DES actors with poll and
//     heartbeat timers; they auto-commit after every poll round,
//     rejoin cooperatively when a heartbeat reports a rebalance
//     (committing their progress inside the revoke window first), and
//     leave once a drain predicate holds and their partitions are
//     consumed and committed.
//   - Manual: tests call Poll/Commit/Heartbeat themselves and pump the
//     simulator in between.
//
// Not safe for concurrent use; the DES is single-threaded.
type Group struct {
	sim *des.Simulator
	co  *coordinator.Coordinator
	cfg GroupConfig

	partitions int32
	members    map[string]*Member
	order      []string // member names in Join order
	active     int      // members neither crashed nor left
	started    int

	// parts holds each partition's cluster handle, resolved once: a poll
	// visits every assigned partition every tick, and all it needs from
	// the cluster most of the time is the leader's log end.
	parts []cluster.Partition

	// consumed holds, per partition, the keys delivered to the
	// application in delivery order (after dedup when Dedup is set) —
	// the group-side half of the end-to-end reconciliation.
	consumed [][]uint64
	// deliveredNext is the per-partition dedup watermark: the next
	// offset the application has not seen yet.
	deliveredNext []int64
	// commitHi is the highest offsets-log-acknowledged commit per
	// partition (0 = none) — durable facts, recorded even when the
	// committing member has since crashed.
	commitHi []int64
	// hwm is the latest high watermark any member observed per
	// partition (-1 = never fetched) — the group-wide drain target.
	hwm []int64
	// owner is the member currently owning each partition ("" = none) —
	// the client-side ownership ledger behind the cooperative-rebalance
	// evidence (ownership spans, redelivery budget).
	owner []string
	// pausedAt stamps when each partition last lost active polling
	// coverage (-1 = covered). The paused-partition span measures the
	// rebalance cost the cooperative protocol exists to remove.
	pausedAt []time.Duration
	// lag is FencedLag's answer, refilled by every call.
	lag []int64

	ev           Evidence
	drainCheck   func() bool
	lastProgress time.Duration
	gaveUp       bool

	commits des.FreeList[commitReq]

	// elided counts the poll visits answered without a fetch (pollOnce).
	// Tests read it; it is in no output.
	elided uint64

	// Observability handles, resolved once from GroupConfig.Obs (all
	// nil-safe no-ops when unset).
	hSpanE2E    *obs.Histogram
	hSpanCommit *obs.Histogram
	hPaused     *obs.Histogram
}

const (
	// pollInterval is the driven-mode poll cadence.
	pollInterval = 2 * time.Millisecond
	// pollMax caps records per poll round.
	pollMax = 512
	// commitRoundTimeout abandons an unacknowledged commit round (the
	// offsets log can silently swallow acks=all requests while its
	// partition is leaderless); the next poll round retries.
	commitRoundTimeout = 100 * time.Millisecond
	// retryBackoff spaces join/offset-fetch retries.
	retryBackoff = 10 * time.Millisecond
)

// GroupConfig parameterises a Group. Members heartbeat every third of
// the session timeout and fetch at read_uncommitted (everything but
// control markers).
type GroupConfig struct {
	// ID is the group id (default "group").
	ID string
	// Topic is the subscribed topic (required; must exist).
	Topic string
	// SessionTimeout is passed to the coordinator on every join
	// (default: the coordinator's default).
	SessionTimeout time.Duration
	// Cooperative switches members to the incremental rebalance protocol
	// (KIP-429): they join carrying the partitions they still own, keep
	// consuming everything they retain across the generation bump, and
	// revoke only the partitions leaving them — committing those
	// partitions' progress first. Default (false) is the classic eager
	// protocol: every rebalance pauses every partition for the whole
	// join-barrier window.
	Cooperative bool
	// Auto runs members as DES actors (see Group doc).
	Auto bool
	// Dedup suppresses redelivered offsets (at or below the delivered
	// watermark) from the application stream — the app-side half of
	// exactly-once consumption.
	Dedup bool
	// CaptureEvidence records every delivery and commit ack on the
	// Evidence — the chaos end-to-end checker's input. Off by default
	// (memory-heavy for large runs).
	CaptureEvidence bool
	// IdleGiveUp, when positive, makes driven members abandon the
	// drain (leaving unclean) after this much sim time without any
	// group-wide delivery progress once the drain predicate holds —
	// the escape hatch for permanently unservable partitions.
	IdleGiveUp time.Duration
	// Obs receives the end-to-end and commit latency spans and the
	// pause histogram. Nil disables them all (Evidence always counts).
	Obs *obs.Obs
}

func (c *GroupConfig) applyDefaults(co *coordinator.Coordinator) {
	if c.ID == "" {
		c.ID = "group"
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = co.Config().SessionTimeout
	}
}

// heartbeatInterval is a third of the session timeout.
func (g *Group) heartbeatInterval() time.Duration { return g.cfg.SessionTimeout / 3 }

// Delivery is one record handed to the application.
type Delivery struct {
	Partition  int32
	Offset     int64
	Key        uint64
	Member     string
	Generation int32
}

// CommitAck is one durably acknowledged offset commit.
// AfterDeliveries is the length of Evidence.Deliveries at the moment
// the ack arrived, interleaving the two logs for replay.
type CommitAck struct {
	Partition       int32
	Offset          int64
	AfterDeliveries int
}

// OwnershipSpan is one interval during which a member owned (could
// deliver on) a partition. Spans end when the partition is revoked,
// the member crashes, leaves, or discovers its eviction; spans still
// open when Evidence is snapshotted are closed at the snapshot time.
// chaos.VerifyCoop checks that no partition has two members' spans
// overlapping in open sim-time.
type OwnershipSpan struct {
	Partition  int32
	Member     string
	Generation int32
	From       time.Duration
	To         time.Duration
}

// PauseSpan is one closed partition-pause window: sim time during which
// no member's poll loop covered the partition (CaptureEvidence only).
type PauseSpan struct {
	Partition int32
	From      time.Duration
	To        time.Duration
}

// Evidence is the group's end-to-end delivery record: what the
// application saw, what the offsets log acknowledged, and the
// membership churn along the way.
type Evidence struct {
	Group string
	Dedup bool
	// Deliveries, CommitAcks, OwnershipSpans and PauseSpans are only
	// populated under CaptureEvidence; the counters always are.
	Deliveries     []Delivery
	CommitAcks     []CommitAck
	OwnershipSpans []OwnershipSpan
	// PauseSpans records each window a partition spent without polling
	// coverage — the per-incident decomposition of PausedNs.
	PauseSpans []PauseSpan

	Delivered      uint64 // records handed to the application
	Redelivered    uint64 // polled records at already-delivered offsets
	CommitsAcked   uint64 // durably acknowledged offset commits
	Rewinds        uint64 // position rewinds after log truncation
	FencedCommits  uint64 // commits rejected by generation/member fencing
	FencedFetches  uint64 // offset fetches rejected by fencing
	Rebalances     uint64 // assignments applied across all members
	Crashes        uint64
	Restarts       uint64
	CommitTimeouts uint64
	// RedeliveryBudget bounds legitimate at-least-once redelivery: the
	// sum over every ownership end of that partition's uncommitted
	// window (delivered beyond the durable commit) plus every
	// truncation-rewind window. chaos.VerifyCoop checks
	// Redelivered <= RedeliveryBudget.
	RedeliveryBudget uint64
	// PausedNs accumulates partition-pause time: for each partition, the
	// sim-time it spent without active polling coverage (eager members
	// pause everything for each join barrier; cooperative members pause
	// only the partitions actually moving).
	PausedNs uint64
	// Drained reports a clean end: every member left after its
	// partitions were consumed to the high watermark and committed.
	Drained bool
}

type memberState int8

const (
	mDown memberState = iota
	mJoining
	mSyncing
	mStable
)

func (s memberState) String() string {
	switch s {
	case mDown:
		return "down"
	case mJoining:
		return "joining"
	case mSyncing:
		return "syncing"
	case mStable:
		return "stable"
	default:
		return fmt.Sprintf("state(%d)", int8(s))
	}
}

// Member is one group member actor.
type Member struct {
	g     *Group
	name  string // stable client-side name (fault target)
	id    string // coordinator-assigned member id
	gen   int32
	state memberState

	assigned []int32
	// position (next offset to fetch) and ackedTo (durably acknowledged
	// commit watermark) are indexed by partition; both hold notOwned
	// where the member has no position, and are set and cleared together.
	position []int64
	ackedTo  []int64

	hbT, pollT, commitT, retryT *des.Timer
	hbCB                        func(wire.HeartbeatResponse)

	joinEpoch     uint64 // discards responses to superseded joins
	commitEpoch   uint64 // discards acks of abandoned commit rounds
	inFlight      int
	pendingAssign []int32 // assignment awaiting offset fetches
	crashed       bool
	left          bool
	cleanLeft     bool
	// joinAfterCommit defers a rebalance-triggered rejoin until the
	// in-flight commit round resolves: generation N's progress must be
	// durable (or cleanly failed) before the join barrier can close and
	// hand the partitions to generation N+1 — the commit-before-revoke
	// barrier. commitTimeout is the escape hatch.
	joinAfterCommit bool
	// hbPhase is a fixed per-member heartbeat phase offset. Real group
	// members never heartbeat in lockstep; without the offset every
	// member would detect a rebalance at the same simulated instant and
	// the eager barrier would look free.
	hbPhase time.Duration
	// openSpan maps an owned partition to its open ownership-span index
	// in Evidence.OwnershipSpans (CaptureEvidence only).
	openSpan map[int32]int
}

// notOwned marks a partition a member holds no position (or commit
// watermark) for.
const notOwned = -1

// newPartitionState returns n entries of notOwned.
func newPartitionState(n int32) []int64 {
	s := make([]int64, n)
	for p := range s {
		s[p] = notOwned
	}
	return s
}

// commitReq is one in-flight offset commit, pooled so the steady-state
// commit path allocates nothing per commit.
type commitReq struct {
	m      *Member
	epoch  uint64
	part   int32
	offset int64
	sentAt time.Duration
	fire   func(wire.OffsetCommitResponse)
}

func (g *Group) getCommitReq() *commitReq {
	j := g.commits.Get()
	if j.fire == nil {
		j.fire = j.done
	}
	return j
}

func (g *Group) putCommitReq(j *commitReq) {
	j.m = nil
	g.commits.Put(j)
}

// NewGroup creates a group over the topic. The topic must exist; its
// partition count is taken from the cluster.
func NewGroup(sim *des.Simulator, co *coordinator.Coordinator, clst *cluster.Cluster, cfg GroupConfig) (*Group, error) {
	if sim == nil || co == nil || clst == nil {
		return nil, fmt.Errorf("consumer: nil simulator, coordinator or cluster")
	}
	if cfg.Topic == "" {
		return nil, fmt.Errorf("consumer: empty topic")
	}
	n, ok := clst.PartitionCount(cfg.Topic)
	if !ok {
		return nil, fmt.Errorf("consumer: topic %q: %s", cfg.Topic, wire.ErrUnknownTopicOrPartition)
	}
	cfg.applyDefaults(co)
	sim.DeclareDelay(pollInterval) // every member's poll timer (des lanes)
	g := &Group{
		sim:           sim,
		co:            co,
		cfg:           cfg,
		partitions:    int32(n),
		parts:         make([]cluster.Partition, n),
		members:       make(map[string]*Member),
		consumed:      make([][]uint64, n),
		deliveredNext: make([]int64, n),
		commitHi:      make([]int64, n),
		hwm:           make([]int64, n),
		owner:         make([]string, n),
		pausedAt:      make([]time.Duration, n),
	}
	for p := range g.hwm {
		g.parts[p], _ = clst.Partition(cfg.Topic, int32(p)) // the metadata above listed it
		g.hwm[p] = -1
		// Every partition starts uncovered; the first assignment closes
		// the pause, so the initial join barrier is measured too.
		g.pausedAt[p] = sim.Now()
	}
	g.ev.Group = cfg.ID
	g.ev.Dedup = cfg.Dedup
	if o := cfg.Obs; o != nil {
		g.hSpanE2E = o.Histogram(obs.MSpanDelivery, obs.LatencyBounds)
		g.hSpanCommit = o.Histogram(obs.MSpanCommit, obs.LatencyBounds)
		g.hPaused = o.Histogram(obs.MPausedNs, obs.LatencyBounds)
	}
	return g, nil
}

// SetDrainCheck installs the driven-mode drain predicate: once it
// returns true, members leave as soon as their partitions are consumed
// to the high watermark and committed.
func (g *Group) SetDrainCheck(fn func() bool) { g.drainCheck = fn }

// Partitions returns the topic's partition count.
func (g *Group) Partitions() int32 { return g.partitions }

// Join adds a member under a stable client-side name and starts its
// join. In driven mode the member begins polling once the first
// rebalance completes.
func (g *Group) Join(name string) error {
	if name == "" {
		return fmt.Errorf("consumer: empty member name")
	}
	if _, ok := g.members[name]; ok {
		return fmt.Errorf("consumer: member %q already joined", name)
	}
	m := &Member{
		g:        g,
		name:     name,
		position: newPartitionState(g.partitions),
		ackedTo:  newPartitionState(g.partitions),
		hbPhase:  time.Duration(len(g.order)%8) * g.heartbeatInterval() / 8,
	}
	m.hbT = des.NewTimer(g.sim, m.heartbeatTick)
	m.pollT = des.NewTimer(g.sim, m.pollTick)
	m.commitT = des.NewTimer(g.sim, m.commitTimeout)
	m.retryT = des.NewTimer(g.sim, m.retryTick)
	m.hbCB = m.onHeartbeat
	g.members[name] = m
	g.order = append(g.order, name)
	g.active++
	g.started++
	if g.lastProgress == 0 {
		g.lastProgress = g.sim.Now()
	}
	m.sendJoin()
	return nil
}

// member resolves a name or errors.
func (g *Group) member(name string) (*Member, error) {
	m, ok := g.members[name]
	if !ok {
		return nil, fmt.Errorf("consumer: unknown member %q", name)
	}
	return m, nil
}

// Evidence returns the group's delivery evidence at this instant.
// Ownership spans still open and partitions still paused are closed at
// the snapshot time in the result (the live state is untouched): the
// ownership spans are a copy, since closing one rewrites it, and the
// open pauses are appended to a view of the closed ones. Deliveries,
// CommitAcks and PauseSpans are views of the group's append-only logs,
// capped at their length, so neither the group's later appends nor a
// caller's append reach the other; a caller must not write their
// elements.
func (g *Group) Evidence() Evidence {
	now := g.sim.Now()
	ev := g.ev
	ev.Deliveries = capped(g.ev.Deliveries)
	ev.CommitAcks = capped(g.ev.CommitAcks)
	ev.OwnershipSpans = slices.Clone(g.ev.OwnershipSpans)
	for i := range ev.OwnershipSpans {
		if ev.OwnershipSpans[i].To < 0 {
			ev.OwnershipSpans[i].To = now
		}
	}
	ev.PauseSpans = capped(g.ev.PauseSpans)
	for p := range g.pausedAt {
		if g.pausedAt[p] >= 0 {
			ev.PausedNs += uint64(now - g.pausedAt[p])
			if g.cfg.CaptureEvidence {
				ev.PauseSpans = append(ev.PauseSpans, PauseSpan{
					Partition: int32(p), From: g.pausedAt[p], To: now,
				})
			}
		}
	}
	return ev
}

// ConsumedKeys returns, per partition, the keys delivered to the
// application in delivery order: capped views of the group's
// append-only key logs, as Evidence's. A caller must not write them.
func (g *Group) ConsumedKeys() [][]uint64 {
	out := make([][]uint64, len(g.consumed))
	for p, ks := range g.consumed {
		out[p] = capped(ks)
	}
	return out
}

// capped is a view of an append-only log that no append can write
// through: its capacity is its length, so appending to it copies.
func capped[T any](s []T) []T { return s[:len(s):len(s)] }

// ---- ownership & pause accounting ----

// beginOwnership registers the member as the partition's owner, closing
// the partition's pause window and opening an ownership span.
func (m *Member) beginOwnership(p int32) {
	g := m.g
	if g.owner[p] != m.name {
		g.owner[p] = m.name
		if g.cfg.CaptureEvidence {
			if m.openSpan == nil {
				m.openSpan = make(map[int32]int)
			}
			if _, open := m.openSpan[p]; !open {
				m.openSpan[p] = len(g.ev.OwnershipSpans)
				g.ev.OwnershipSpans = append(g.ev.OwnershipSpans, OwnershipSpan{
					Partition: p, Member: m.name, Generation: m.gen,
					From: g.sim.Now(), To: -1,
				})
			}
		}
	}
	g.resumePartition(p)
}

// endOwnership releases the partition, charging its uncommitted window
// to the redelivery budget: whoever acquires it next resumes from a
// durable commit at or above commitHi as of now, so at most
// deliveredNext-commitHi records can legitimately be delivered again.
func (m *Member) endOwnership(p int32) {
	g := m.g
	if g.owner[p] == m.name {
		g.owner[p] = ""
	}
	if w := g.deliveredNext[p] - g.commitHi[p]; w > 0 {
		g.ev.RedeliveryBudget += uint64(w)
	}
	if i, open := m.openSpan[p]; open {
		g.ev.OwnershipSpans[i].To = g.sim.Now()
		delete(m.openSpan, p)
	}
}

// pausePartition marks the partition as having lost polling coverage —
// unless another member has already taken it over (its poll loop is the
// coverage now).
func (m *Member) pausePartition(p int32) {
	g := m.g
	if g.owner[p] != "" && g.owner[p] != m.name {
		return
	}
	if g.pausedAt[p] < 0 {
		g.pausedAt[p] = g.sim.Now()
	}
}

// resumePartition closes an open pause window and accounts it.
func (g *Group) resumePartition(p int32) {
	if at := g.pausedAt[p]; at >= 0 {
		d := g.sim.Now() - at
		g.ev.PausedNs += uint64(d)
		g.hPaused.Observe(int64(d))
		if g.cfg.CaptureEvidence {
			g.ev.PauseSpans = append(g.ev.PauseSpans, PauseSpan{
				Partition: p, From: at, To: g.sim.Now(),
			})
		}
		g.pausedAt[p] = -1
	}
}

// ---- join / sync ----

func (m *Member) sendJoin() {
	g := m.g
	if !g.cfg.Cooperative {
		// Eager stop-the-world: polling stops for the whole barrier, so
		// every owned partition loses coverage until the new assignment
		// applies. Cooperative members keep consuming what they hold.
		for _, p := range m.assigned {
			m.pausePartition(p)
		}
	}
	m.state = mJoining
	m.pendingAssign = nil
	m.joinAfterCommit = false
	m.joinEpoch++
	epoch := m.joinEpoch
	req := wire.JoinGroupRequest{
		Group:          g.cfg.ID,
		MemberID:       m.id,
		Topic:          g.cfg.Topic,
		SessionTimeout: g.cfg.SessionTimeout,
	}
	if g.cfg.Cooperative {
		req.Protocol = wire.ProtocolCooperative
		req.OwnedPartitions = append([]int32(nil), m.assigned...)
	}
	g.co.HandleJoinGroup(req, func(resp wire.JoinGroupResponse) { m.onJoin(epoch, resp) })
}

func (m *Member) onJoin(epoch uint64, resp wire.JoinGroupResponse) {
	if m.crashed || m.left || epoch != m.joinEpoch || m.state != mJoining {
		return
	}
	switch resp.Err {
	case wire.ErrNone:
		m.id = resp.MemberID
		m.gen = resp.Generation
		m.sync()
	case wire.ErrRebalanceInProgress:
		// Our own newer join superseded this one; its callback is still
		// parked. Nothing to do.
	case wire.ErrUnknownMemberID:
		// Evicted while parked (missed the rebalance window). The
		// coordinator delivers this before handing our partitions to the
		// survivors, so ownership must end here and now — a cooperative
		// member that kept its assignment polling would overlap the new
		// owners. Rejoin with a fresh identity after a backoff.
		m.resetLocal()
		m.id = ""
		m.retryT.Reset(retryBackoff)
	default:
		m.retryT.Reset(retryBackoff)
	}
}

func (m *Member) sync() {
	g := m.g
	m.state = mSyncing
	g.co.HandleSyncGroup(wire.SyncGroupRequest{
		Group: g.cfg.ID, MemberID: m.id, Generation: m.gen,
	}, m.onSync)
}

func (m *Member) onSync(resp wire.SyncGroupResponse) {
	if m.crashed || m.left || m.state != mSyncing {
		return
	}
	switch resp.Err {
	case wire.ErrNone:
		m.applyAssignment(resp.Assigned)
	case wire.ErrRebalanceInProgress:
		m.sendJoin()
	default: // ErrIllegalGeneration, ErrUnknownMemberID
		m.sendJoin()
	}
}

// applyAssignment installs a new assignment. Cooperative members keep
// the positions of retained partitions, drop revoked ones
// (commit-before-revoke), and resume newly acquired partitions from the
// durable committed offset. Eager members lost everything at the join
// barrier — their whole subscription state was replaced, as with a real
// eager client — so every partition resumes from the committed offset,
// and whatever the pre-join flush failed to make durable is consumed
// again (the redelivery window the cooperative protocol avoids).
func (m *Member) applyAssignment(assigned []int32) {
	g := m.g
	for i := range m.position {
		p := int32(i)
		if m.position[p] == notOwned {
			continue
		}
		if !g.cfg.Cooperative {
			// Eager revoke-all: no position survives the barrier. The
			// dirty positions were flushed before the join (onHeartbeat);
			// a flush that failed there is lost here, not retried — the
			// old generation is gone.
			m.endOwnership(p)
			m.pausePartition(p)
			m.position[p], m.ackedTo[p] = notOwned, notOwned
			continue
		}
		if !slices.Contains(assigned, p) {
			// Commit-before-revoke: a cooperative member kept consuming
			// right through the join barrier, so progress since the last
			// commit round must become durable before the partition moves
			// to its next owner (who resumes from the committed offset).
			if pos := m.position[p]; pos > m.ackedTo[p] {
				m.commitOne(p, pos)
			}
			m.endOwnership(p)
			m.pausePartition(p)
			m.position[p], m.ackedTo[p] = notOwned, notOwned
		}
	}
	for _, p := range assigned {
		if m.position[p] != notOwned {
			continue
		}
		var fr wire.OffsetFetchResponse
		g.co.HandleOffsetFetch(wire.OffsetFetchRequest{
			Group: g.cfg.ID, MemberID: m.id, Generation: m.gen,
			Topic: g.cfg.Topic, Partition: p,
		}, func(r wire.OffsetFetchResponse) { fr = r })
		switch fr.Err {
		case wire.ErrNone:
			m.position[p] = fr.Offset
			m.ackedTo[p] = fr.Offset
		case wire.ErrNoCommittedOffset:
			m.position[p] = 0
			m.ackedTo[p] = 0
		case wire.ErrCoordinatorNotAvailable:
			// Offsets log leaderless: park the assignment and retry.
			m.pendingAssign = append([]int32(nil), assigned...)
			m.retryT.Reset(retryBackoff)
			return
		default: // fenced: another rebalance raced us
			g.ev.FencedFetches++
			m.sendJoin()
			return
		}
	}
	m.pendingAssign = nil
	m.assigned = append(m.assigned[:0], assigned...)
	for _, p := range assigned {
		m.beginOwnership(p)
	}
	m.state = mStable
	g.ev.Rebalances++
	if g.cfg.Auto {
		m.pollT.Reset(pollInterval)
		m.hbT.Reset(g.heartbeatInterval() + m.hbPhase)
	}
}

// retryTick resumes whatever the member was waiting to redo.
func (m *Member) retryTick() {
	if m.crashed || m.left {
		return
	}
	switch {
	case m.state == mJoining:
		m.sendJoin()
	case m.state == mSyncing && m.pendingAssign != nil:
		m.applyAssignment(m.pendingAssign)
	}
}

// ---- heartbeats ----

func (m *Member) heartbeatTick() {
	if m.state != mStable || m.crashed || m.left {
		return
	}
	m.g.co.HandleHeartbeat(wire.HeartbeatRequest{
		Group: m.g.cfg.ID, MemberID: m.id, Generation: m.gen,
	}, m.hbCB)
}

func (m *Member) onHeartbeat(resp wire.HeartbeatResponse) {
	if m.state != mStable || m.crashed || m.left {
		return
	}
	switch resp.Err {
	case wire.ErrNone:
		m.hbT.Reset(m.g.heartbeatInterval())
	case wire.ErrRebalanceInProgress:
		// A rebalance wants us back at the barrier. Cooperative members
		// rejoin immediately — they keep consuming and committing their
		// current assignment while parked, and commit-before-revoke
		// happens per partition when the new assignment applies. Eager
		// members revoke everything at the join, so generation N's
		// progress must be durable first: flush the dirty positions (the
		// coordinator accepts current-generation commits during
		// PreparingRebalance) and join only once the acks land —
		// commitTimeout is the escape hatch. Joining with the flush still
		// in flight is the redelivery storm this barrier exists to stop:
		// the ack materialises after the new owner's offset fetch, and
		// the whole uncommitted window is consumed twice.
		if m.g.cfg.Cooperative {
			m.sendJoin()
			return
		}
		if m.joinAfterCommit {
			m.hbT.Reset(m.g.heartbeatInterval())
			return // already flushing; keep the session alive meanwhile
		}
		m.commitDirty()
		if m.inFlight > 0 {
			m.joinAfterCommit = true
			m.hbT.Reset(m.g.heartbeatInterval())
			return
		}
		m.sendJoin()
	case wire.ErrUnknownMemberID:
		// Session expired server-side; our state is stale.
		m.resetLocal()
		m.id = ""
		m.sendJoin()
	default: // ErrIllegalGeneration
		m.sendJoin()
	}
}

// ---- polling ----

// pollTick is the driven-mode poll round: fetch, deliver, auto-commit,
// and check the drain condition.
func (m *Member) pollTick() {
	if m.crashed || m.left {
		return
	}
	g := m.g
	if m.state != mStable {
		// Cooperative members keep consuming (and committing) the
		// partitions they still hold while a rebalance is in flight —
		// that retained coverage is the whole point of KIP-429. Eager
		// members stop until the new assignment applies.
		if g.cfg.Cooperative && len(m.assigned) > 0 {
			m.pollOnce(pollMax, nil)
			m.commitDirty()
			m.pollT.Reset(pollInterval)
		}
		return
	}
	if m.joinAfterCommit {
		// Revocation pending behind the commit flush: polling on would
		// dirty the positions again and the flush would never complete.
		// applyAssignment restarts the poll timer.
		return
	}
	m.pollOnce(pollMax, nil)
	if m.state != mStable { // a fenced commit mid-round triggered a rejoin
		return
	}
	m.commitDirty()
	if g.drainCheck != nil && g.drainCheck() {
		if m.drainedAndCommitted() {
			m.leave(true)
			return
		}
		if g.cfg.IdleGiveUp > 0 && g.sim.Now()-g.lastProgress >= g.cfg.IdleGiveUp {
			g.gaveUp = true
			m.leave(false)
			return
		}
	}
	m.pollT.Reset(pollInterval)
}

// pollOnce fetches up to max records across the member's assigned
// partitions and delivers them. When collect is non-nil the delivered
// records are also appended there (manual Poll).
//
// Most visits find nothing new: the member sits at the log end (or, at
// read_committed, at the last stable offset) and the group already holds
// the leader's high watermark. Such a fetch is answered without being
// issued — broker.Partition.FetchIsNoOp says the response would be empty
// with NextOffset == pos and the same high watermark, and with the dedup
// watermark already at pos deliver would store back what is stored. It
// uses no budget, as an empty response uses none.
func (m *Member) pollOnce(max int, collect *[]wire.Record) {
	g := m.g
	budget := max
	for _, p := range m.assigned {
		if budget <= 0 {
			break
		}
		pos := m.position[p]
		if pos == notOwned {
			// Revoked, but still listed in assigned: a cooperative
			// assignment that revoked p is parked behind a leaderless
			// offsets log (applyAssignment) and has not replaced the list
			// yet. The partition is no longer this member's to read.
			continue
		}
		if g.deliveredNext[p] >= pos {
			if lp, ok := g.parts[p].Leader(); ok && lp.FetchIsNoOp(pos, g.hwm[p], wire.ReadUncommitted) {
				g.elided++
				if verifyElided {
					m.checkElided(p, pos, budget)
				} else {
					lp.CountFetch()
				}
				continue
			}
		}
		// The fetched records are a view into the leader's log, valid only
		// inside the callback, so delivery happens there. A partition whose
		// leader is down never calls back: retry next round.
		g.parts[p].Fetch(g.fetchRequest(p, pos, budget), func(fr wire.FetchResponse) {
			budget -= m.deliver(p, pos, fr, collect)
		})
	}
}

// fetchRequest is a poll's fetch of partition p at pos.
func (g *Group) fetchRequest(p int32, pos int64, budget int) wire.FetchRequest {
	return wire.FetchRequest{
		Topic: g.cfg.Topic, Partition: p,
		Offset: pos, MaxRecords: int32(budget),
	}
}

// checkElided issues the fetch pollOnce has just decided to skip and
// panics unless it is the no-op that decision rests on: answered, no
// error, no records, and nothing deliver would move. Race builds run it
// on every elided fetch (verifyElided); the request counts itself in the
// broker's statistics, in place of CountFetch.
func (m *Member) checkElided(p int32, pos int64, budget int) {
	g := m.g
	answered := false
	g.parts[p].Fetch(g.fetchRequest(p, pos, budget), func(fr wire.FetchResponse) {
		answered = true
		if fr.Err != wire.ErrNone || len(fr.Records) != 0 || fr.NextOffset != pos ||
			fr.HighWatermark != g.hwm[p] || g.deliveredNext[p] < fr.NextOffset {
			panic(fmt.Sprintf("consumer: elided fetch of %s/%d at %d (hwm %d, delivered to %d) was not a no-op: err=%s records=%d next=%d hwm=%d",
				g.cfg.Topic, p, pos, g.hwm[p], g.deliveredNext[p], fr.Err, len(fr.Records), fr.NextOffset, fr.HighWatermark))
		}
	})
	if !answered {
		panic(fmt.Sprintf("consumer: elided fetch of %s/%d at %d went unanswered", g.cfg.Topic, p, pos))
	}
}

// deliver handles the response to a fetch of partition p at pos and
// returns the number of records it consumed from the poll budget.
func (m *Member) deliver(p int32, pos int64, fr wire.FetchResponse, collect *[]wire.Record) int {
	g := m.g
	if fr.Err != wire.ErrNone {
		// Only the broker's out-of-range signal carries a
		// trustworthy high watermark: the position outran the log
		// because an unclean restart truncated it. Rewind and
		// re-consume the rewritten suffix (at-least-once
		// redelivery). Leaderless errors report HighWatermark 0 and
		// must not touch positions or the drain watermark.
		if fr.Err == wire.ErrRequestTimedOut && fr.HighWatermark < pos {
			g.hwm[p] = fr.HighWatermark
			m.position[p] = fr.HighWatermark
			if m.ackedTo[p] > fr.HighWatermark {
				m.ackedTo[p] = fr.HighWatermark
			}
			g.ev.Rewinds++
			// The truncated suffix will be refetched: its re-appended
			// records arrive at already-delivered offsets. Charge the
			// window to the redelivery budget.
			if w := g.deliveredNext[p] - fr.HighWatermark; w > 0 {
				g.ev.RedeliveryBudget += uint64(w)
			}
		}
		return 0
	}
	g.hwm[p] = fr.HighWatermark
	for i := range fr.Records {
		rec := &fr.Records[i]
		off := pos + int64(i)
		fresh := off >= g.deliveredNext[p]
		if fresh {
			g.deliveredNext[p] = off + 1
			g.ev.Delivered++
			// End-to-end span: exactly one sample per offset the
			// application accepts, timed from producer enqueue.
			g.hSpanE2E.Observe(int64(g.sim.Now() - rec.Timestamp))
		} else {
			g.ev.Redelivered++
			if g.cfg.Dedup {
				continue // exactly-once: suppress the redelivery
			}
		}
		g.consumed[p] = append(g.consumed[p], rec.Key)
		g.lastProgress = g.sim.Now()
		if g.cfg.CaptureEvidence {
			g.ev.Deliveries = append(g.ev.Deliveries, Delivery{
				Partition: p, Offset: off, Key: rec.Key,
				Member: m.name, Generation: m.gen,
			})
		}
		if collect != nil {
			*collect = append(*collect, *rec)
		}
	}
	// Resume from the broker's NextOffset, which steps over filtered
	// runs (control markers, aborted transactions) the records slice
	// never contained; the dedup watermark follows, since a filtered
	// offset can never be delivered at this isolation level.
	m.position[p] = fr.NextOffset
	if fr.NextOffset > g.deliveredNext[p] {
		g.deliveredNext[p] = fr.NextOffset
	}
	return len(fr.Records)
}

// drainedAndCommitted reports whether the member may leave cleanly:
// every partition of the GROUP has been delivered to its observed high
// watermark (a member that leaves just because its own partitions are
// empty would strand a crashed peer's backlog), and the member's own
// positions are durably committed with nothing in flight.
func (m *Member) drainedAndCommitted() bool {
	g := m.g
	if m.inFlight > 0 {
		return false
	}
	for p := int32(0); p < g.partitions; p++ {
		if g.hwm[p] < 0 || g.deliveredNext[p] < g.hwm[p] {
			return false
		}
	}
	for _, p := range m.assigned {
		if pos := m.position[p]; pos > 0 && m.ackedTo[p] < pos {
			return false
		}
	}
	return true
}

// Poll fetches up to max records for a manual-mode member.
func (g *Group) Poll(name string, max int) ([]wire.Record, error) {
	m, err := g.member(name)
	if err != nil {
		return nil, err
	}
	if m.state != mStable {
		return nil, fmt.Errorf("consumer: member %q not stable (%s)", name, m.state)
	}
	if max <= 0 {
		return nil, fmt.Errorf("consumer: poll max %d <= 0", max)
	}
	var out []wire.Record
	m.pollOnce(max, &out)
	return out, nil
}

// ---- commits ----

// commitDirty sends one commit per assigned partition whose position
// advanced past the acknowledged watermark. Acks arrive after the
// offsets log replicates; the round is abandoned (and later retried)
// if no ack lands within CommitTimeout.
func (m *Member) commitDirty() {
	for _, p := range m.assigned {
		pos := m.position[p]
		if pos <= m.ackedTo[p] {
			continue
		}
		m.commitOne(p, pos)
	}
}

// commitOne sends a single offset commit and (re)arms the commit
// timeout from this send.
func (m *Member) commitOne(p int32, pos int64) {
	g := m.g
	j := g.getCommitReq()
	j.m, j.epoch, j.part, j.offset = m, m.commitEpoch, p, pos
	j.sentAt = g.sim.Now()
	m.inFlight++
	g.co.HandleOffsetCommit(wire.OffsetCommitRequest{
		Group: g.cfg.ID, MemberID: m.id, Generation: m.gen,
		Topic: g.cfg.Topic, Partition: p, Offset: pos,
	}, j.fire)
	if m.inFlight > 0 {
		m.commitT.Reset(commitRoundTimeout)
	}
}

func (j *commitReq) done(resp wire.OffsetCommitResponse) {
	m := j.m
	g := m.g
	epoch, p, off, sentAt := j.epoch, j.part, j.offset, j.sentAt
	g.putCommitReq(j)
	if resp.Err == wire.ErrNone {
		// A durable fact regardless of what happened to the member
		// since: the group's resume point moved.
		if off > g.commitHi[p] {
			g.commitHi[p] = off
		}
		g.ev.CommitsAcked++
		g.hSpanCommit.Observe(int64(g.sim.Now() - sentAt))
		if g.cfg.CaptureEvidence {
			g.ev.CommitAcks = append(g.ev.CommitAcks, CommitAck{
				Partition: p, Offset: off, AfterDeliveries: len(g.ev.Deliveries),
			})
		}
	}
	if epoch != m.commitEpoch {
		return // abandoned round or crashed member
	}
	m.inFlight--
	if m.inFlight == 0 {
		m.commitT.Stop()
	}
	awaitingJoin := m.joinAfterCommit
	switch resp.Err {
	case wire.ErrNone:
		// Guarded update: a commit for a since-revoked partition must not
		// resurrect its ackedTo entry (the new owner tracks it now).
		if cur := m.ackedTo[p]; cur != notOwned && off > cur {
			m.ackedTo[p] = off
		}
	case wire.ErrIllegalGeneration, wire.ErrUnknownMemberID:
		g.ev.FencedCommits++
		if resp.Err == wire.ErrUnknownMemberID && !m.crashed && !m.left {
			// Evicted: our assignment is being handed out right now.
			m.resetLocal()
			m.id = ""
		}
		if (m.state == mStable || awaitingJoin) && !m.crashed && !m.left {
			m.sendJoin()
		}
		return
	case wire.ErrRebalanceInProgress:
		// The commit raced the join barrier and was cleanly rejected —
		// not materialized, not dropped. Positions stay dirty; the next
		// poll re-commits them in the new generation.
	default:
		// Retriable (coordinator unavailable, not enough replicas):
		// the next poll round re-commits the same position.
	}
	// Commit-before-revoke barrier release: the deferred rejoin fires
	// once the flush round fully resolves (acked or cleanly failed —
	// a failed flush redelivers, but boundedly, and stalling the whole
	// group's rebalance behind a dead offsets log would be worse).
	if awaitingJoin && m.inFlight == 0 && !m.crashed && !m.left {
		m.sendJoin()
	}
}

func (m *Member) commitTimeout() {
	if m.inFlight == 0 || m.crashed || m.left {
		return
	}
	m.g.ev.CommitTimeouts++
	m.commitEpoch++
	m.inFlight = 0
	if m.joinAfterCommit {
		// Escape hatch for the commit-before-revoke barrier: the offsets
		// log would not answer within commitRoundTimeout (below the
		// coordinator's straggler deadline, so we rejoin before it evicts
		// us). Join anyway and accept the bounded redelivery of the
		// unflushed window.
		m.sendJoin()
	}
}

// Commit starts an async commit of the member's current positions.
// Pump the simulator to await the acks.
func (g *Group) Commit(name string) error {
	m, err := g.member(name)
	if err != nil {
		return err
	}
	if m.state != mStable {
		return fmt.Errorf("consumer: member %q not stable (%s)", name, m.state)
	}
	m.commitDirty()
	return nil
}

// Committed returns the group's durably committed offset for a
// partition, read through the coordinator's offsets log. A partition
// nothing was ever committed for returns ErrNoCommit — never a silent
// zero.
func (g *Group) Committed(partition int32) (int64, error) {
	var fr wire.OffsetFetchResponse
	got := false
	g.co.HandleOffsetFetch(wire.OffsetFetchRequest{
		Group: g.cfg.ID, Topic: g.cfg.Topic, Partition: partition,
	}, func(r wire.OffsetFetchResponse) { fr = r; got = true })
	if !got {
		return 0, fmt.Errorf("consumer: offset fetch unanswered")
	}
	switch fr.Err {
	case wire.ErrNone:
		return fr.Offset, nil
	case wire.ErrNoCommittedOffset:
		return 0, fmt.Errorf("consumer: partition %d: %w", partition, ErrNoCommit)
	default:
		return 0, fmt.Errorf("consumer: partition %d: offset fetch: %s", partition, fr.Err)
	}
}

// anyOwned reports whether any live member currently owns a partition.
// While true, lag probes fence themselves to the owned partitions —
// a partition mid-handoff (revoked, not yet acquired) has no member
// accountable for it, and charging its backlog to the group double
// counts it the moment the new owner's first commit lands. When nothing
// is owned (before the first assignment, or after every member left)
// the probes fall back to the full admin view.
func (g *Group) anyOwned() bool {
	for _, o := range g.owner {
		if o != "" {
			return true
		}
	}
	return false
}

// LagByPartition returns, per partition, the records between the
// durable committed offset and the partition high watermark
// (uncommitted partitions count from offset 0). Both sides are read
// through the coordinator and cluster — the authoritative (not
// group-cached) view. Rows are fenced to the current generation's
// assignment (see anyOwned); unowned partitions report zero.
func (g *Group) LagByPartition() ([]int64, error) {
	lags := make([]int64, g.partitions)
	fence := g.anyOwned()
	for p := int32(0); p < g.partitions; p++ {
		if fence && g.owner[p] == "" {
			continue
		}
		committed, err := g.Committed(p)
		if err != nil && !errors.Is(err, ErrNoCommit) {
			return nil, err
		}
		lp, ok := g.parts[p].Leader()
		if !ok {
			return nil, fmt.Errorf("consumer: partition %d leaderless", p)
		}
		lags[p] = lp.End() - committed
	}
	return lags, nil
}

// FencedLag returns the group's per-partition lag from its own durable
// facts (observed high watermarks vs acknowledged commits), fenced as
// LagByPartition is. It is a pure observer, safe to call mid-chaos — a
// leaderless partition reports its last known backlog instead of an
// error — and allocates nothing after its first call: the result is
// the group's buffer, valid until the next call, so a caller that
// keeps it copies it.
func (g *Group) FencedLag() []int64 {
	if g.lag == nil {
		g.lag = make([]int64, g.partitions)
	} else {
		clear(g.lag)
	}
	fence := g.anyOwned()
	for p := int32(0); p < g.partitions; p++ {
		if fence && g.owner[p] == "" {
			continue // fenced: no live owner in the current generation
		}
		if g.hwm[p] < 0 {
			continue // never fetched: backlog unknown, count as zero
		}
		if l := g.hwm[p] - g.commitHi[p]; l > 0 {
			g.lag[p] = l
		}
	}
	return g.lag
}

// Counts returns the group's Evidence counters as of now without its
// logs and spans, and with PausedNs counting closed pauses only: the
// allocation-free read a timeline sample makes.
func (g *Group) Counts() Evidence {
	ev := g.ev
	ev.Deliveries, ev.CommitAcks, ev.OwnershipSpans, ev.PauseSpans = nil, nil, nil, nil
	return ev
}

// ---- leave / crash / restart ----

func (m *Member) stopTimers() {
	m.hbT.Stop()
	m.pollT.Stop()
	m.commitT.Stop()
	m.retryT.Stop()
}

func (m *Member) leave(clean bool) {
	g := m.g
	m.stopTimers()
	for _, p := range m.assigned {
		m.endOwnership(p)
		m.pausePartition(p)
	}
	for p := range m.openSpan {
		m.endOwnership(p)
	}
	wasStable := m.state == mStable
	m.state = mDown
	m.left = true
	m.cleanLeft = clean
	m.commitEpoch++
	m.inFlight = 0
	g.active--
	if wasStable && m.id != "" {
		g.co.HandleLeaveGroup(wire.LeaveGroupRequest{
			Group: g.cfg.ID, MemberID: m.id,
		}, nil)
	}
	if g.active == 0 {
		g.finish()
	}
}

// finish settles the group-level verdict once the last actor stopped.
func (g *Group) finish() {
	// Stop the paused-partition clocks: with no members left there is
	// nothing to resume, and post-run idle time is not rebalance cost.
	for p := range g.pausedAt {
		if g.pausedAt[p] >= 0 {
			d := g.sim.Now() - g.pausedAt[p]
			g.ev.PausedNs += uint64(d)
			g.hPaused.Observe(int64(d))
			g.pausedAt[p] = -1
		}
	}
	drained := !g.gaveUp
	for _, name := range g.order {
		m := g.members[name]
		if m.left && !m.cleanLeft {
			drained = false
		}
	}
	if g.started > 0 {
		// At least one member must have left cleanly: crashed-only
		// groups drained nothing.
		clean := false
		for _, name := range g.order {
			if g.members[name].cleanLeft {
				clean = true
			}
		}
		drained = drained && clean
	}
	g.ev.Drained = drained
}

// resetLocal wipes a member's in-memory consumption state (crash, or
// server-side eviction discovered via heartbeat).
func (m *Member) resetLocal() {
	for _, p := range m.assigned {
		m.endOwnership(p)
		m.pausePartition(p)
	}
	for p := range m.openSpan {
		m.endOwnership(p)
	}
	m.assigned = m.assigned[:0]
	for p := range m.position {
		m.position[p], m.ackedTo[p] = notOwned, notOwned
	}
	m.pendingAssign = nil
	m.commitEpoch++
	m.inFlight = 0
	m.joinAfterCommit = false
}

// CrashMember kills the member at Join-order index i: timers stop,
// in-memory positions are lost, and no LeaveGroup is sent — the
// coordinator only notices when the session expires.
func (g *Group) CrashMember(i int) error {
	if i < 0 || i >= len(g.order) {
		return fmt.Errorf("consumer: member index %d outside [0,%d)", i, len(g.order))
	}
	return g.Crash(g.order[i])
}

// RestartMember revives the member at Join-order index i with a fresh
// identity; it rejoins and resumes from the durable committed offsets.
func (g *Group) RestartMember(i int) error {
	if i < 0 || i >= len(g.order) {
		return fmt.Errorf("consumer: member index %d outside [0,%d)", i, len(g.order))
	}
	return g.Restart(g.order[i])
}

// Crash is CrashMember by name.
func (g *Group) Crash(name string) error {
	m, err := g.member(name)
	if err != nil {
		return err
	}
	if m.crashed || m.left {
		return fmt.Errorf("consumer: member %q already down", name)
	}
	m.stopTimers()
	m.crashed = true
	m.state = mDown
	m.resetLocal()
	g.active--
	g.ev.Crashes++
	if g.active == 0 {
		g.finish()
	}
	return nil
}

// Restart is RestartMember by name.
func (g *Group) Restart(name string) error {
	m, err := g.member(name)
	if err != nil {
		return err
	}
	if !m.crashed {
		return fmt.Errorf("consumer: member %q is not crashed", name)
	}
	m.crashed = false
	m.id = "" // a restarted process rejoins as a new member
	g.active++
	g.ev.Restarts++
	g.ev.Drained = false
	m.sendJoin()
	return nil
}
