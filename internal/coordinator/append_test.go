package coordinator

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/storage"
	"kafkarel/internal/wire"
)

const pendingErr = wire.ErrorCode(0xFFFF)

// stableMember joins one member to group "g" and syncs it, leaving the
// group Stable with a member that may commit.
func stableMember(t *testing.T, sim *des.Simulator, co *Coordinator) *wire.JoinGroupResponse {
	t.Helper()
	jr := join(co, "g", "")
	sim.RunUntil(50 * time.Millisecond)
	if jr.Err != wire.ErrNone {
		t.Fatalf("join: %s", jr.Err)
	}
	sync(t, co, "g", jr.MemberID, jr.Generation)
	return jr
}

// TestCommitToAckDoesNotAllocatePerCommit pins the durable commit path —
// OffsetCommit in, sequenced offsets-log append replicated at acks=all,
// materialised-offset update, acked response out — at no allocation of
// its own per commit: the job is pooled, the payload is encoded into the
// appender's scratch, and what the logs keep is carved from its slab.
// What is left (a slab chunk per few hundred commits, a log segment per
// replica now and then) averages to less than one object per commit; it
// was a payload and a one-record slice each, 4 allocs/op with the
// caller's closure in BenchmarkCommitPath.
func TestCommitToAckDoesNotAllocatePerCommit(t *testing.T) {
	sim, _, co := rig(t, Config{SessionTimeout: time.Hour})
	jr := stableMember(t, sim, co)

	var cr wire.OffsetCommitResponse
	done := func(r wire.OffsetCommitResponse) { cr = r }
	offset := int64(0)
	const commits = 2000
	allocs := testing.AllocsPerRun(commits, func() {
		cr.Err = pendingErr
		offset++
		co.HandleOffsetCommit(wire.OffsetCommitRequest{
			Group: "g", MemberID: jr.MemberID, Generation: jr.Generation,
			Topic: "stream", Partition: 0, Offset: offset,
		}, done)
		for cr.Err == pendingErr {
			if err := sim.RunUntil(sim.Now() + time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	})
	if cr.Err != wire.ErrNone {
		t.Fatalf("last commit: %s", cr.Err)
	}
	if got := co.Stats().Commits; got != commits+1 { // AllocsPerRun warms up once
		t.Fatalf("commits = %d, want %d", got, commits+1)
	}
	if allocs != 0 {
		t.Fatalf("commit to ack allocates %.0f objects per commit, want 0 (amortised)", allocs)
	}
}

// TestAppendedBytesSurviveScratchReuse reads the coordinators' logs back
// after many appends: every record must still hold the bytes of its own
// append. The appender encodes each payload into one reused scratch
// buffer, so a stored payload that aliased it would read as a later
// append's bytes — most visibly when several appends of different sizes
// are in flight at once, as here.
func TestAppendedBytesSurviveScratchReuse(t *testing.T) {
	sim, clst, co := rig(t, Config{SessionTimeout: time.Hour})
	tc, err := NewTxn(sim, clst, co, TxnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	jr := stableMember(t, sim, co)

	var wantCommits []commitRecord
	var wantTids []string
	acked := 0
	for i := 0; i < 600; i++ {
		rec := commitRecord{Group: "g", Topic: "stream", Partition: int32(i % 4), Offset: int64(i), Generation: jr.Generation}
		switch i % 3 {
		case 0: // a transactional commit: any group name, no generation fencing
			rec.Group, rec.Generation = fmt.Sprintf("pipeline-%0*d", i%9, i), -1
			co.CommitTxnOffset(rec.Group, rec.Topic, rec.Partition, rec.Offset, func(r wire.OffsetCommitResponse) {
				if r.Err == wire.ErrNone {
					acked++
				}
			})
		default:
			co.HandleOffsetCommit(wire.OffsetCommitRequest{
				Group: "g", MemberID: jr.MemberID, Generation: jr.Generation,
				Topic: "stream", Partition: rec.Partition, Offset: rec.Offset,
			}, func(r wire.OffsetCommitResponse) {
				if r.Err == wire.ErrNone {
					acked++
				}
			})
		}
		wantCommits = append(wantCommits, rec)
		if i%5 == 0 {
			tid := fmt.Sprintf("tid-%0*d", i%11, i)
			tc.HandleInitProducerID(wire.InitProducerIDRequest{TransactionalID: tid}, nil)
			wantTids = append(wantTids, tid)
		}
		if i%7 == 6 { // drain a burst
			sim.RunUntil(sim.Now() + 5*time.Millisecond)
		}
	}
	sim.RunUntil(sim.Now() + 50*time.Millisecond)
	slices.Sort(wantTids)
	if acked != len(wantCommits) {
		t.Fatalf("%d of %d commits acknowledged", acked, len(wantCommits))
	}

	for id := int32(0); id < int32(clst.Brokers()); id++ {
		// Log order is service-completion order (a longer payload takes
		// longer to persist), so match records to appends by their unique
		// offset rather than by position.
		seen := 0
		clst.Broker(id).Log(offsetsTopic, 0).Scan(func(e storage.Entry) bool {
			rec, err := decodeCommitRecord(e.Record.Payload, "", "")
			if err != nil {
				t.Fatalf("broker %d offsets log offset %d: %v", id, e.Offset, err)
			}
			if rec.Offset < 0 || rec.Offset >= int64(len(wantCommits)) || rec != wantCommits[rec.Offset] {
				t.Fatalf("broker %d offsets log offset %d holds %+v, which no commit appended", id, e.Offset, rec)
			}
			seen++
			return true
		})
		if seen != len(wantCommits) {
			t.Fatalf("broker %d offsets log holds %d records, want %d", id, seen, len(wantCommits))
		}
		var tids []string
		clst.Broker(id).Log(txnTopic, 0).Scan(func(e storage.Entry) bool {
			rec, err := decodeTxnStateRecord(e.Record.Payload)
			if err != nil {
				t.Fatalf("broker %d txn log offset %d: %v", id, e.Offset, err)
			}
			if rec.Epoch != 0 || rec.State != txnEmpty || len(rec.Partitions)+len(rec.Offsets) != 0 {
				t.Fatalf("broker %d txn log record %+v, appended a fresh identity grant", id, rec)
			}
			tids = append(tids, rec.Tid)
			return true
		})
		slices.Sort(tids)
		if !slices.Equal(tids, wantTids) {
			t.Fatalf("broker %d txn log tids = %v, appended %v", id, tids, wantTids)
		}
	}
}
