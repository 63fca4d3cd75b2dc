package testbed

import (
	"runtime"
	"testing"
	"time"

	"kafkarel/internal/features"
)

// mallocsPerExtraRecord runs the Fig. 7 point at loss rate loss with n and
// with 2n messages and returns the heap objects the second n cost, per
// record: the rig's set-up and the pools' warm-up cancel out.
func mallocsPerExtraRecord(t *testing.T, loss float64, n int) float64 {
	t.Helper()
	mallocs := func(messages int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(Experiment{
			Features: features.Vector{
				MessageSize:    200,
				Timeliness:     5 * time.Second,
				DelayMs:        10,
				LossRate:       loss,
				Semantics:      features.SemanticsAtLeastOnce,
				BatchSize:      2,
				MessageTimeout: 500 * time.Millisecond,
			},
			Messages: messages,
			Seed:     19,
		})
		runtime.ReadMemStats(&after)
		if err != nil || !res.Completed || res.Acquired != uint64(messages) {
			t.Fatalf("L=%v n=%d: err %v, completed %v, acquired %d", loss, messages, err, res.Completed, res.Acquired)
		}
		if lost := res.Metrics.PacketsLostRandom; (lost > 0) != (loss > 0) {
			t.Fatalf("L=%v n=%d: %d packets lost", loss, messages, lost)
		}
		return after.Mallocs - before.Mallocs
	}
	return (float64(mallocs(2*n)) - float64(mallocs(n))) / float64(n)
}

// A record sent over a path that loses one packet in five costs the heap
// what a record sent over a clean one does: a lost packet's memory goes
// back where it came from. (Before packets were linearly owned every drop
// stranded a dataPkt or ackPkt and an MSS buffer, ≈ 0.41 objects per record
// at this point.)
func TestLossyRecordAllocatesWhatACleanOneDoes(t *testing.T) {
	const n = 4000
	clean := mallocsPerExtraRecord(t, 0, n)
	lossy := mallocsPerExtraRecord(t, 0.19, n)
	t.Logf("heap objects per extra record: clean %.4f, L=19%% %.4f", clean, lossy)
	if lossy > clean+0.05 {
		t.Errorf("a record at L=19%% costs %.4f heap objects, a clean one %.4f", lossy, clean)
	}
}
