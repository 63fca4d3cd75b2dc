package consumer

import (
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// An idle poll visit is answered without a fetch (pollOnce). These tests
// pin what that must not change: the simulated fetch count, the
// allocation-free tick, and the first poll after every event that makes
// the skipped answer stale.

// fetchRequests sums Stats.FetchRequests over the brokers.
func fetchRequests(c *cluster.Cluster) uint64 {
	var n uint64
	for _, st := range c.StatsAll() {
		n += st.FetchRequests
	}
	return n
}

// pollRig is a three-broker cluster with topic "t" (one partition unless
// said otherwise), a coordinator and one manual-mode member "c0".
type pollRig struct {
	t    *testing.T
	sim  *des.Simulator
	clst *cluster.Cluster
	g    *Group
	m    *Member
}

func newPollRig(t *testing.T, ccfg cluster.Config, rf int, gcfg GroupConfig) *pollRig {
	t.Helper()
	sim := des.New()
	clst, err := cluster.New(sim, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := clst.CreateTopic("t", 1, rf); err != nil {
		t.Fatal(err)
	}
	co, err := coordinator.New(sim, clst, coordinator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gcfg.Topic = "t"
	g, err := NewGroup(sim, co, clst, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Join("c0"); err != nil {
		t.Fatal(err)
	}
	r := &pollRig{t: t, sim: sim, clst: clst, g: g, m: g.members["c0"]}
	r.pump(20 * time.Millisecond)
	if got := g.members["c0"].state.String(); got != "stable" {
		t.Fatalf("member state = %s, want stable", got)
	}
	return r
}

func (r *pollRig) pump(d time.Duration) {
	r.t.Helper()
	if err := r.sim.RunUntil(r.sim.Now() + d); err != nil {
		r.t.Fatal(err)
	}
}

// produce routes one acks=1 batch through the cluster and lets it land on
// every replica.
func (r *pollRig) produce(b wire.RecordBatch) {
	r.t.Helper()
	r.clst.HandleProduce(wire.ProduceRequest{Topic: "t", Acks: wire.AcksLeader, Batch: b}, nil)
	r.pump(2 * time.Millisecond)
}

func plainBatch(keys ...uint64) wire.RecordBatch {
	var b wire.RecordBatch
	for _, k := range keys {
		b.Records = append(b.Records, wire.Record{Key: k})
	}
	return b
}

// poll runs one manual poll and reports the keys it returned, whether the
// visit was elided, and how many fetches the brokers counted for it.
func (r *pollRig) poll() (keys []uint64, elided bool, fetches uint64) {
	r.t.Helper()
	e0, f0 := r.g.elided, fetchRequests(r.clst)
	recs, err := r.g.Poll("c0", 100)
	if err != nil {
		r.t.Fatal(err)
	}
	for _, rec := range recs {
		keys = append(keys, rec.Key)
	}
	return keys, r.g.elided > e0, fetchRequests(r.clst) - f0
}

// wantIdle asserts the next poll is elided: no records, nothing moved, and
// still one simulated fetch on the books.
func (r *pollRig) wantIdle(when string) {
	r.t.Helper()
	pos, hwm, next := r.m.position[0], r.g.hwm[0], r.g.deliveredNext[0]
	keys, elided, fetches := r.poll()
	if !elided || len(keys) != 0 || fetches != 1 {
		r.t.Fatalf("%s: poll elided=%v keys=%v fetches=%d, want an elided, empty poll counted as one fetch", when, elided, keys, fetches)
	}
	if r.m.position[0] != pos || r.g.hwm[0] != hwm || r.g.deliveredNext[0] != next {
		r.t.Fatalf("%s: elided poll moved state: position %d→%d hwm %d→%d deliveredNext %d→%d",
			when, pos, r.m.position[0], hwm, r.g.hwm[0], next, r.g.deliveredNext[0])
	}
}

// wantFetched asserts the next poll went to the broker and returned keys.
func (r *pollRig) wantFetched(when string, want ...uint64) {
	r.t.Helper()
	keys, elided, _ := r.poll()
	if elided {
		r.t.Fatalf("%s: poll was elided, want a real fetch", when)
	}
	if len(keys) != len(want) {
		r.t.Fatalf("%s: poll returned keys %v, want %v", when, keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			r.t.Fatalf("%s: poll returned keys %v, want %v", when, keys, want)
		}
	}
}

// k idle ticks over n assigned partitions add exactly k·n to the brokers'
// fetch count — every visit is a simulated fetch, issued or not — and the
// same holds while records flow.
func TestIdlePollsCountAsFetches(t *testing.T) {
	const partitions, perPart, ticks = 4, 5, 25
	r := newGroupRig(t, partitions, perPart)
	g, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{Topic: "t", Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Join("c0"); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 50*time.Millisecond)
	if ev := g.Evidence(); ev.Delivered != partitions*perPart {
		t.Fatalf("delivered %d records before the idle window, want %d", ev.Delivered, partitions*perPart)
	}
	window := ticks * pollInterval

	e0, f0 := g.elided, fetchRequests(r.clst)
	r.pump(t, window)
	if got := fetchRequests(r.clst) - f0; got != ticks*partitions {
		t.Errorf("idle: %d ticks over %d partitions counted %d fetches, want %d", ticks, partitions, got, ticks*partitions)
	}
	if got := g.elided - e0; got != ticks*partitions {
		t.Errorf("idle: %d of %d visits elided, want all of them", got, ticks*partitions)
	}

	// One record lands on a partition every third tick.
	const flowing = 8
	for i := 0; i < flowing; i++ {
		p := int32(i % partitions)
		key := uint64(1000 + i)
		r.sim.Schedule(r.sim.Now()+time.Duration(3*i+1)*pollInterval, func() {
			r.clst.Leader("t", p).Log("t", p).Append([]wire.Record{{Key: key}})
		})
	}
	e0, f0 = g.elided, fetchRequests(r.clst)
	r.pump(t, window)
	if got := fetchRequests(r.clst) - f0; got != ticks*partitions {
		t.Errorf("flowing: %d ticks over %d partitions counted %d fetches, want %d", ticks, partitions, got, ticks*partitions)
	}
	if got := g.elided - e0; got != ticks*partitions-flowing {
		t.Errorf("flowing: %d visits elided, want %d (all but the %d that had a record waiting)", got, ticks*partitions-flowing, flowing)
	}
	if ev := g.Evidence(); ev.Delivered != partitions*perPart+flowing {
		t.Errorf("delivered %d records, want %d", ev.Delivered, partitions*perPart+flowing)
	}
}

// A poll tick that finds nothing allocates nothing: no request, no
// response, no closure — the deterministic form of the cost the elision
// exists to remove.
func TestIdlePollTickAllocatesNothing(t *testing.T) {
	r := newGroupRig(t, 4, 5)
	g, err := NewGroup(r.sim, r.co, r.clst, GroupConfig{Topic: "t", Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Join("c0"); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 100*time.Millisecond)
	m := g.members["c0"]
	if m.state != mStable || len(m.assigned) != 4 || m.inFlight != 0 {
		t.Fatalf("member not settled: state=%s assigned=%v inFlight=%d", m.state, m.assigned, m.inFlight)
	}
	e0 := g.elided
	if allocs := testing.AllocsPerRun(200, m.pollTick); allocs != 0 {
		t.Errorf("idle pollTick allocates %.1f times per round, want 0", allocs)
	}
	if g.elided-e0 < 200*4 {
		t.Errorf("only %d visits elided over 200 idle rounds of 4 partitions", g.elided-e0)
	}
}

// An unclean restart truncates the log below the member's position while
// the member sits idle at the old end. The first poll after the restart
// must reach the broker (the high watermark it holds is stale), rewind,
// and charge the redelivery budget exactly the truncated window.
func TestElisionYieldsToTruncationBelowPosition(t *testing.T) {
	ccfg := cluster.DefaultConfig()
	ccfg.Broker.FlushInterval = 100 * time.Millisecond
	r := newPollRig(t, ccfg, 1, GroupConfig{})
	leader := r.clst.Leader("t", 0).ID()

	r.produce(plainBatch(1, 2, 3, 4, 5, 6))
	r.pump(100 * time.Millisecond)
	r.produce(plainBatch(7, 8, 9, 10)) // first append past the boundary flushes 1..6 only
	r.wantFetched("initial", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	r.wantIdle("at the log end")

	if err := r.clst.CrashBrokerUnclean(leader); err != nil {
		t.Fatal(err)
	}
	// Replication factor 1: the partition is leaderless. The fetch is
	// issued, answered with an error, and changes nothing.
	before := r.g.Evidence()
	if keys, elided, _ := r.poll(); elided || len(keys) != 0 {
		t.Fatalf("leaderless: poll elided=%v keys=%v, want a real, empty fetch", elided, keys)
	}
	if r.m.position[0] != 10 || r.g.hwm[0] != 10 || r.g.Evidence().Rewinds != before.Rewinds {
		t.Fatalf("leaderless poll moved state: position=%d hwm=%d", r.m.position[0], r.g.hwm[0])
	}
	if lags, err := r.g.LagByPartition(); err == nil {
		t.Fatalf("LagByPartition on a leaderless partition = %v, want an error", lags)
	}

	if err := r.clst.RecoverBroker(leader); err != nil {
		t.Fatal(err)
	}
	r.wantFetched("first poll after the restart")
	ev := r.g.Evidence()
	if r.m.position[0] != 6 || r.g.hwm[0] != 6 {
		t.Fatalf("after restart: position=%d hwm=%d, want both rewound to 6", r.m.position[0], r.g.hwm[0])
	}
	if ev.Rewinds != before.Rewinds+1 || ev.RedeliveryBudget != before.RedeliveryBudget+4 {
		t.Fatalf("after restart: rewinds %d→%d budget %d→%d, want +1 and +4",
			before.Rewinds, ev.Rewinds, before.RedeliveryBudget, ev.RedeliveryBudget)
	}
	r.wantIdle("rewound to the new end")
	if lags, err := r.g.LagByPartition(); err != nil || lags[0] != 6 {
		t.Fatalf("LagByPartition = %v, %v, want the leader's end 6 with nothing committed", lags, err)
	}

	r.produce(plainBatch(17, 18, 19, 20))
	r.wantFetched("rewritten suffix", 17, 18, 19, 20)
	if got := r.g.Evidence().Redelivered; got != before.Redelivered+4 {
		t.Fatalf("rewritten suffix: redelivered %d, want %d", got, before.Redelivered+4)
	}
}

// Leadership moves while the member sits idle at the old leader's end:
// first to a replica whose log is shorter (the high watermark the group
// holds is stale — fetch and rewind), then to one of equal length (the
// skipped answer is still the right one, now from another broker), then
// to a leader that is down but still listed (no answer, no elision).
func TestElisionFollowsLeaderFailover(t *testing.T) {
	r := newPollRig(t, cluster.DefaultConfig(), 3, GroupConfig{})
	r.clst.HandleProduce(wire.ProduceRequest{
		Topic: "t", Acks: wire.AcksAll, Batch: plainBatch(1, 2, 3, 4, 5, 6, 7, 8),
	}, nil)
	r.pump(5 * time.Millisecond)
	first := r.clst.Leader("t", 0)
	first.Log("t", 0).Append([]wire.Record{{Key: 9}, {Key: 10}}) // a tail no follower has
	r.wantFetched("initial", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	r.wantIdle("at the first leader's end")

	before := r.g.Evidence()
	if err := r.clst.FailBroker(first.ID()); err != nil {
		t.Fatal(err)
	}
	r.wantFetched("first poll after failing over to a shorter log")
	ev := r.g.Evidence()
	if r.m.position[0] != 8 || r.g.hwm[0] != 8 || ev.Rewinds != before.Rewinds+1 || ev.RedeliveryBudget != before.RedeliveryBudget+2 {
		t.Fatalf("shorter log: position=%d hwm=%d rewinds +%d budget +%d, want 8, 8, +1, +2",
			r.m.position[0], r.g.hwm[0], ev.Rewinds-before.Rewinds, ev.RedeliveryBudget-before.RedeliveryBudget)
	}
	r.wantIdle("at the second leader's end")

	second := r.clst.Leader("t", 0)
	if err := r.clst.FailBroker(second.ID()); err != nil {
		t.Fatal(err)
	}
	third := r.clst.Leader("t", 0)
	if third == nil || third.Log("t", 0).End() != 8 {
		t.Fatal("third replica is not an equal-length leader")
	}
	f0 := third.Stats().FetchRequests
	r.wantIdle("after failing over to an equal-length log")
	if got := third.Stats().FetchRequests - f0; got != 1 {
		t.Fatalf("the elided fetch was counted %d times on the new leader, want 1", got)
	}

	third.Stop() // behind the cluster's back: still listed as leader
	if keys, elided, fetches := r.poll(); elided || len(keys) != 0 || fetches != 0 {
		t.Fatalf("leader down: poll elided=%v keys=%v fetches=%d, want a silent, unanswered fetch", elided, keys, fetches)
	}
	if r.m.position[0] != 8 || r.g.hwm[0] != 8 {
		t.Fatalf("leader down: position=%d hwm=%d, want 8, 8", r.m.position[0], r.g.hwm[0])
	}
	third.Start()
	r.wantIdle("leader back up")
}

// The first poll of a member whose position came from a commit the group
// object never saw delivered (a fresh Group over an existing group id)
// must reach the broker even at the log end: the dedup watermark is
// behind the position and the fetch is what advances it.
func TestElisionWaitsForDedupWatermark(t *testing.T) {
	r := newPollRig(t, cluster.DefaultConfig(), 3, GroupConfig{})
	r.produce(plainBatch(1, 2, 3))
	r.wantFetched("initial", 1, 2, 3)
	r.g.deliveredNext[0] = 0 // as in a group object created after the commit
	if _, elided, _ := r.poll(); elided {
		t.Fatal("poll elided with the dedup watermark behind the position")
	}
	if r.g.deliveredNext[0] != 3 {
		t.Fatalf("deliveredNext = %d after the fetch, want 3", r.g.deliveredNext[0])
	}
	r.wantIdle("watermark caught up")
}

// On a shard shaped like the repository benchmark's fleet_fanout — eight
// partitions fed 100 records/s in two-record batches, two groups of two
// members polling every 2 ms — at least 95 % of poll visits are elided,
// and the brokers count exactly the fetches they counted before the
// elision existed.
func TestFleetShapedShardElidesIdleFetches(t *testing.T) {
	const (
		partitions = 8
		records    = 5600
		// fetchesAtParent is the sum of Stats.FetchRequests this scenario
		// produced at the commit before idle polls were elided.
		fetchesAtParent = 447976
	)
	sim := des.New()
	clst, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := clst.CreateTopic("t", partitions, 3); err != nil {
		t.Fatal(err)
	}
	co, err := coordinator.New(sim, clst, coordinator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	produced := 0
	var feed *des.Timer
	feed = des.NewTimer(sim, func() {
		clst.HandleProduce(wire.ProduceRequest{
			Topic: "t", Partition: int32(produced / 2 % partitions), Acks: wire.AcksLeader,
			Batch: plainBatch(uint64(produced+1), uint64(produced+2)),
		}, nil)
		produced += 2
		if produced < records {
			feed.Reset(20 * time.Millisecond)
		}
	})
	feed.Reset(20 * time.Millisecond)

	var groups []*Group
	for _, id := range []string{"g00", "g01"} {
		g, err := NewGroup(sim, co, clst, GroupConfig{ID: id, Topic: "t", Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		g.SetDrainCheck(func() bool { return produced >= records })
		for _, name := range []string{"c0", "c1"} {
			if err := g.Join(name); err != nil {
				t.Fatal(err)
			}
		}
		groups = append(groups, g)
	}
	if err := sim.RunUntil(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	var elided uint64
	for _, g := range groups {
		ev := g.Evidence()
		if g.started == 0 || g.active != 0 || !ev.Drained || ev.Delivered != records {
			t.Fatalf("group %s: active=%d drained=%v delivered=%d, want a clean drain of %d", ev.Group, g.active, ev.Drained, ev.Delivered, records)
		}
		elided += g.elided
	}
	visits := fetchRequests(clst)
	if visits != fetchesAtParent {
		t.Errorf("brokers counted %d fetches, want %d as before the elision", visits, fetchesAtParent)
	}
	if share := float64(elided) / float64(visits); share < 0.95 {
		t.Errorf("%d of %d poll visits elided (%.1f %%), want at least 95 %%", elided, visits, 100*share)
	}
	t.Logf("%d of %d poll visits elided (%.2f %%)", elided, visits, 100*float64(elided)/float64(visits))
}
