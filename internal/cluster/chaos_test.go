package cluster

import (
	"bytes"
	"testing"
	"time"

	"kafkarel/internal/broker"
	"kafkarel/internal/des"
	"kafkarel/internal/storage"
	"kafkarel/internal/wire"
)

// logDump renders a log's full contents (offset, key, payload) for
// byte-identical comparison.
func logDump(l *storage.Log) []byte {
	var buf bytes.Buffer
	l.Scan(func(e storage.Entry) bool {
		buf.WriteString(string(rune(e.Offset)))
		buf.WriteString(string(rune(e.Record.Key)))
		buf.Write(e.Record.Payload)
		buf.WriteByte(0)
		return true
	})
	return buf.Bytes()
}

// TestRecoverBrokerCatchUpDivergence is the satellite-3 coverage: a
// follower whose log diverged from the leader — first longer, then
// shorter — must truncate its divergent suffix and copy the leader's,
// ending byte-identical to the leader log.
func TestRecoverBrokerCatchUpDivergence(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	leader := c.Leader("t", 0)
	followerID := int32((leader.ID() + 1) % 3)
	follower := c.Broker(followerID)

	// Seed both with a shared prefix.
	for i := 0; i < 3; i++ {
		c.HandleProduce(produceReq(uint32(i), wire.AcksLeader, uint64(i+1)), nil)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	t.Run("longer than leader", func(t *testing.T) {
		if err := c.FailBroker(followerID); err != nil {
			t.Fatal(err)
		}
		// The downed follower's log grows a divergent suffix the leader
		// never saw (e.g. appends from a deposed leader epoch).
		follower.Start()
		follower.Log("t", 0).Append([]wire.Record{
			{Key: 100, Payload: []byte("divergent")},
			{Key: 101, Payload: []byte("divergent")},
		})
		follower.Stop()
		if err := c.RecoverBroker(followerID); err != nil {
			t.Fatal(err)
		}
		src, dst := leader.Log("t", 0), follower.Log("t", 0)
		if dst.End() != src.End() {
			t.Fatalf("follower end %d != leader end %d", dst.End(), src.End())
		}
		if !bytes.Equal(logDump(dst), logDump(src)) {
			t.Error("follower log not byte-identical to leader after catch-up")
		}
	})

	t.Run("shorter than leader", func(t *testing.T) {
		if err := c.FailBroker(followerID); err != nil {
			t.Fatal(err)
		}
		follower.Log("t", 0).TruncateTo(1)
		// Leader keeps appending while the follower is down.
		for i := 10; i < 14; i++ {
			c.HandleProduce(produceReq(uint32(i), wire.AcksLeader, uint64(i)), nil)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if err := c.RecoverBroker(followerID); err != nil {
			t.Fatal(err)
		}
		src, dst := leader.Log("t", 0), follower.Log("t", 0)
		if dst.End() != src.End() || dst.End() != 7 {
			t.Fatalf("follower end %d, leader end %d, want both 7", dst.End(), src.End())
		}
		if !bytes.Equal(logDump(dst), logDump(src)) {
			t.Error("follower log not byte-identical to leader after catch-up")
		}
	})
}

func TestCrashBrokerUncleanLosesAckedTail(t *testing.T) {
	sim := des.New()
	cfg := DefaultConfig()
	cfg.Broker.FlushInterval = 100 * time.Millisecond
	c, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replication factor 1: the leader's unflushed tail has no other copy.
	if err := c.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	leaderID := c.Leader("t", 0).ID()
	var acked int
	sim.Schedule(10*time.Millisecond, func() {
		c.HandleProduce(produceReq(1, wire.AcksLeader, 1), func(r wire.ProduceResponse) {
			if r.Err == wire.ErrNone {
				acked++
			}
		})
	})
	sim.Schedule(20*time.Millisecond, func() {
		if err := c.CrashBrokerUnclean(leaderID); err != nil {
			t.Error(err)
		}
	})
	sim.Schedule(30*time.Millisecond, func() {
		if err := c.RecoverBroker(leaderID); err != nil {
			t.Error(err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if acked != 1 {
		t.Fatalf("acked = %d, want 1", acked)
	}
	if end := c.Broker(leaderID).Log("t", 0).End(); end != 0 {
		t.Errorf("log end after unclean restart = %d, want 0 (acked record lost)", end)
	}
	if tr := c.Broker(leaderID).Stats().RecordsTruncated; tr != 1 {
		t.Errorf("RecordsTruncated = %d, want 1", tr)
	}
}

func TestReplicationGatedOnSourceUp(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	leaderID := c.Leader("t", 0).ID()
	sim.Schedule(time.Millisecond, func() {
		c.HandleProduce(produceReq(1, wire.AcksLeader, 1), nil)
	})
	// The leader dies right after appending + acking, inside the
	// inter-broker replication delay window: followers never get the copy.
	sim.Schedule(time.Millisecond+60*time.Microsecond, func() {
		if err := c.FailBroker(leaderID); err != nil {
			t.Error(err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < 3; id++ {
		if id == leaderID {
			continue
		}
		if end := c.Broker(id).Log("t", 0).End(); end != 0 {
			t.Errorf("follower %d received replica from dead leader (end=%d)", id, end)
		}
	}
}

func TestStatsAll(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	c.HandleProduce(produceReq(1, wire.AcksLeader, 1), nil)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	all := c.StatsAll()
	if len(all) != 3 {
		t.Fatalf("StatsAll len = %d", len(all))
	}
	var total broker.Stats
	for _, st := range all {
		total.RecordsAppended += st.RecordsAppended
	}
	if total.RecordsAppended != 3 {
		t.Errorf("cluster-wide appends = %d, want 3 (leader + 2 replicas)", total.RecordsAppended)
	}
}

// A replica recovered while an acks=all batch sits in the (slowed)
// leader's service time catches up from a leader log that does not hold
// the batch yet, and was down when the batch's follower set was captured.
// It must still receive the batch: otherwise it is live, one record
// short, and drops an acknowledged record the day it is elected leader —
// with nothing but clean stops at RF 3.
func TestRecoveredReplicaJoinsInflightAcksAllBatch(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	leader := c.Leader("t", 0)
	late := c.Broker((leader.ID() + 1) % 3) // next in line for leadership
	at := func(us int, fn func()) { sim.Schedule(time.Duration(us)*time.Microsecond, fn) }

	var acks []wire.ProduceResponse
	done := func(r wire.ProduceResponse) { acks = append(acks, r) }
	at(0, func() { c.HandleProduce(produceReq(1, wire.AcksAll, 1, 2), done) })
	at(1000, func() {
		if err := c.FailBroker(late.ID()); err != nil {
			t.Error(err)
		}
		leader.SetSlowdown(5) // service time 50us -> 250us
	})
	// Routed at 2000us with late down; the leader appends at about 2250us.
	at(2000, func() { c.HandleProduce(produceReq(2, wire.AcksAll, 3), done) })
	at(2100, func() {
		if err := c.RecoverBroker(late.ID()); err != nil {
			t.Error(err)
		}
		if got := late.Log("t", 0).End(); got != 2 {
			t.Errorf("catch-up mid-service copied %d records, want the 2 the leader held", got)
		}
	})
	at(10000, func() {
		if len(acks) != 2 || acks[1].Err != wire.ErrNone || acks[1].BaseOffset != 2 {
			t.Fatalf("acks before failover = %+v", acks)
		}
		if err := c.FailBroker(leader.ID()); err != nil {
			t.Error(err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Leader("t", 0); got != late {
		t.Fatalf("new leader = broker %d, want the recovered replica %d", got.ID(), late.ID())
	}
	entries, err := late.Log("t", 0).ReadInto(0, 10, nil)
	if err != nil || len(entries) != 3 || entries[2].Record.Key != 3 {
		t.Fatalf("new leader's log = %v, %v; the acknowledged record at offset 2 is gone", entries, err)
	}
	for id := int32(0); id < 3; id++ {
		if !bytes.Equal(logDump(c.Broker(id).Log("t", 0)), logDump(late.Log("t", 0))) {
			t.Errorf("broker %d log differs from the new leader's", id)
		}
	}
}
