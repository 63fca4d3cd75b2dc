package testbed

import (
	"reflect"
	"testing"
	"time"

	"kafkarel/internal/chaos"
	"kafkarel/internal/wire"
)

func verifyTxnRun(t *testing.T, e TxnExperiment, r TxnResult) chaos.Verdict {
	t.Helper()
	v := chaos.VerifyTxn(chaos.TxnInput{
		Isolation:         e.Isolation,
		Plan:              e.FaultPlan,
		Attempts:          r.Attempts,
		InputKeys:         r.InputKeys,
		CommittedOffsets:  r.CommittedOffsets,
		OutputCommitted:   r.OutputCommitted,
		OutputUncommitted: r.OutputUncommitted,
		Completed:         r.Completed,
	})
	for _, viol := range v.Violations {
		t.Errorf("violation: %s", viol)
	}
	return v
}

func TestTxnPipelineHappyPath(t *testing.T) {
	e := TxnExperiment{Seed: 1, Messages: 40}
	r, err := RunTxn(e)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("pipeline did not complete: committed offsets %v", r.CommittedOffsets)
	}
	verifyTxnRun(t, e, r)
	for p, keys := range r.InputKeys {
		if !reflect.DeepEqual(r.OutputCommitted[p], keys) {
			t.Errorf("partition %d: committed output %v != input %v", p, r.OutputCommitted[p], keys)
		}
		if r.CommittedOffsets[p] != int64(len(keys)) {
			t.Errorf("partition %d: committed offset %d, want %d", p, r.CommittedOffsets[p], len(keys))
		}
		// Nothing aborted: both isolation views agree.
		if !reflect.DeepEqual(r.OutputUncommitted[p], keys) {
			t.Errorf("partition %d: uncommitted view %v != input %v", p, r.OutputUncommitted[p], keys)
		}
	}
	if r.TxnStats.TxnsCommitted == 0 {
		t.Error("coordinator reports zero committed transactions")
	}
	if r.TxnStats.TxnsAborted != 0 {
		t.Errorf("coordinator reports %d aborted transactions on the happy path", r.TxnStats.TxnsAborted)
	}
}

func TestTxnPipelineDeliberateAborts(t *testing.T) {
	e := TxnExperiment{Seed: 2, Messages: 40, AbortEvery: 3}
	r, err := RunTxn(e)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("pipeline did not complete: committed offsets %v", r.CommittedOffsets)
	}
	verifyTxnRun(t, e, r)
	aborted := 0
	for _, a := range r.Attempts {
		if a.Deliberate && a.Outcome == chaos.TxnAborted {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("no deliberate aborts recorded")
	}
	for p, keys := range r.InputKeys {
		// read_committed filters the aborted batches...
		if !reflect.DeepEqual(r.OutputCommitted[p], keys) {
			t.Errorf("partition %d: committed output %v != input %v", p, r.OutputCommitted[p], keys)
		}
	}
	// ...while read_uncommitted sees their residue somewhere.
	residue := 0
	for p := range r.InputKeys {
		residue += len(r.OutputUncommitted[p]) - len(r.OutputCommitted[p])
	}
	if residue == 0 {
		t.Error("aborted batches left no residue in the read_uncommitted view")
	}
	if r.TxnStats.TxnsAborted == 0 {
		t.Error("coordinator reports zero aborted transactions")
	}
}

func TestTxnPipelineProcessorCrashRecovers(t *testing.T) {
	e := TxnExperiment{
		Seed: 3, Messages: 200, TxnTimeout: 100 * time.Millisecond,
		MaxSimTime: 20 * time.Second,
		FaultPlan: chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.ProcessorCrash, At: 20 * time.Millisecond, Duration: 100 * time.Millisecond, Member: 0},
			{Kind: chaos.ProcessorCrash, At: 50 * time.Millisecond, Duration: 150 * time.Millisecond, Member: 1},
		}},
	}
	r, err := RunTxn(e)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("pipeline did not recover: committed offsets %v", r.CommittedOffsets)
	}
	verifyTxnRun(t, e, r)
	if r.Incarnations[0] < 2 || r.Incarnations[1] < 2 {
		t.Errorf("crashed processors did not reincarnate: %v", r.Incarnations)
	}
	for p, keys := range r.InputKeys {
		if !reflect.DeepEqual(r.OutputCommitted[p], keys) {
			t.Errorf("partition %d: committed output != input after crash recovery", p)
		}
	}
}

func TestTxnPipelineZombieFenced(t *testing.T) {
	e := TxnExperiment{
		Seed: 4, Messages: 200, TxnTimeout: 100 * time.Millisecond,
		MaxSimTime: 20 * time.Second,
		FaultPlan: chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.ProcessorZombie, At: 15 * time.Millisecond, Member: 0},
			{Kind: chaos.ProcessorZombie, At: 40 * time.Millisecond, Member: 1},
		}},
	}
	r, err := RunTxn(e)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("pipeline did not survive zombies: committed offsets %v", r.CommittedOffsets)
	}
	verifyTxnRun(t, e, r)
	if r.Incarnations[0] < 2 || r.Incarnations[1] < 2 {
		t.Errorf("zombie incarnations missing: %v", r.Incarnations)
	}
	fenced := 0
	for _, a := range r.Attempts {
		if a.Outcome == chaos.TxnFenced {
			fenced++
		}
	}
	// The zombie race usually fences somebody; the invariant that matters
	// (no superseded commit lands) is checked by verifyTxnRun above.
	t.Logf("attempts=%d fenced=%d incarnations=%v", len(r.Attempts), fenced, r.Incarnations)
}

func TestTxnPipelineBrokerCrash(t *testing.T) {
	e := TxnExperiment{
		Seed: 5, Messages: 120, TxnTimeout: 150 * time.Millisecond,
		MaxSimTime: 20 * time.Second,
		FaultPlan: chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.BrokerCrash, At: 30 * time.Millisecond, Duration: 200 * time.Millisecond, Broker: 0},
			{Kind: chaos.BrokerCrash, At: 300 * time.Millisecond, Duration: 200 * time.Millisecond, Broker: 1},
		}},
	}
	r, err := RunTxn(e)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("pipeline did not ride out broker crashes: committed offsets %v", r.CommittedOffsets)
	}
	verifyTxnRun(t, e, r)
}

func TestTxnPipelineDeterministic(t *testing.T) {
	e := TxnExperiment{
		Seed: 6, Messages: 100, AbortEvery: 4, TxnTimeout: 100 * time.Millisecond,
		MaxSimTime: 20 * time.Second,
		FaultPlan: chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.ProcessorCrash, At: 25 * time.Millisecond, Duration: 80 * time.Millisecond, Member: 1},
			{Kind: chaos.ProcessorZombie, At: 60 * time.Millisecond, Member: 0},
		}},
	}
	a, err := RunTxn(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTxn(e)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same experiment diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestTxnPipelineReadUncommittedResidueClassified(t *testing.T) {
	e := TxnExperiment{
		Seed: 7, Messages: 40, AbortEvery: 2,
		Isolation: wire.ReadUncommitted,
	}
	r, err := RunTxn(e)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("pipeline did not complete: committed offsets %v", r.CommittedOffsets)
	}
	v := verifyTxnRun(t, e, r)
	found := false
	for _, c := range v.Classified {
		if found = true; found {
			t.Logf("classified: %s", c)
			break
		}
	}
	if !found {
		t.Error("read_uncommitted residue was not classified as configuration-expected")
	}
}

// The pipeline's wait-and-retry machinery, which a healthy run never
// needs: every wait goes through the incarnation's timer (after → wake).
// In "one broker's partitions offline" each broker alone holds its
// partitions (ReplicationFactor 1) and broker 0 also the transaction and
// offsets logs. Broker 2 goes down while the filler is still writing, so
// its produce goes unanswered and the re-issue timer fires
// (txnFiller.fire). Broker 1 goes down for 2 s in the middle of a
// transaction's send: the send times out, the processor aborts the
// wounded transaction and re-initialises once the abort is answered
// (onFailAborted), and its fetches come back empty while its input is
// offline (the empty-fetch wait in loop). In "whole cluster down" no
// request can succeed for 300 ms. In both, InitProducerId waits on a
// resolution that cannot finish while a broker is down, so the
// incarnation's own re-issue fences its parked first copy, and only
// supervision restarting the processor lets the pipeline finish —
// exactly once — after the brokers return.
func TestTxnPipelineRetriesThroughBrokerOutages(t *testing.T) {
	crash := func(b int32, at, d time.Duration) chaos.Fault {
		return chaos.Fault{Kind: chaos.BrokerCrash, At: at, Duration: d, Broker: b}
	}
	for _, tc := range []struct {
		name string
		e    TxnExperiment
	}{
		{"one broker's partitions offline", TxnExperiment{
			Seed: 8, Messages: 400, Partitions: 3, ReplicationFactor: 1, TxnTimeout: 5 * time.Second,
			FaultPlan: chaos.Plan{Faults: []chaos.Fault{
				crash(2, 100*time.Microsecond, 50*time.Millisecond),
				crash(1, 10300*time.Microsecond, 2*time.Second),
			}},
		}},
		{"whole cluster down", TxnExperiment{
			Seed: 8, Messages: 400, TxnTimeout: 150 * time.Millisecond,
			FaultPlan: chaos.Plan{Faults: []chaos.Fault{
				crash(0, 40*time.Millisecond, 300*time.Millisecond),
				crash(1, 40*time.Millisecond, 300*time.Millisecond),
				crash(2, 40*time.Millisecond, 300*time.Millisecond),
			}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.e.MaxSimTime = 20 * time.Second
			r, err := RunTxn(tc.e)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Completed {
				t.Fatalf("pipeline did not finish after the outage: committed offsets %v, incarnations %v",
					r.CommittedOffsets, r.Incarnations)
			}
			verifyTxnRun(t, tc.e, r)
			for p, keys := range r.InputKeys {
				if !reflect.DeepEqual(r.OutputCommitted[p], keys) {
					t.Errorf("partition %d: committed output != input after the outage", p)
				}
			}
		})
	}
}
