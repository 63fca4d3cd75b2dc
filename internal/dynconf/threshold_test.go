package dynconf

import (
	"testing"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/netem"
	"kafkarel/internal/workload"
)

// thresholdTrace builds a trace whose segments carry the given loss
// rates, one per 30 s segment.
func thresholdTrace(t *testing.T, rates []float64) netem.Trace {
	t.Helper()
	trace := make(netem.Trace, len(rates))
	for i, r := range rates {
		trace[i] = netem.Segment{Start: time.Duration(i) * 30 * time.Second, DelayMs: 20, LossRate: r}
	}
	return trace
}

func TestThresholdScheduleValidation(t *testing.T) {
	stream := DefaultVector(workload.SocialMedia)
	protective := stream
	protective.BatchSize = 5
	trace := thresholdTrace(t, []float64{0.01})
	if _, err := ThresholdSchedule(nil, stream, protective, 30*time.Second, 0.05); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := ThresholdSchedule(trace, stream, protective, 0, 0.05); err == nil {
		t.Error("non-positive interval accepted")
	}
	for _, bar := range []float64{0, 1, -0.1, 1.5} {
		if _, err := ThresholdSchedule(trace, stream, protective, 30*time.Second, bar); err == nil {
			t.Errorf("loss bar %v accepted", bar)
		}
	}
	if _, err := ThresholdSchedule(trace, features.Vector{}, protective, 30*time.Second, 0.05); err == nil {
		t.Error("invalid stream vector accepted")
	}
}

func TestThresholdScheduleSwitches(t *testing.T) {
	stream := DefaultVector(workload.SocialMedia)
	protective := stream
	protective.Semantics = features.SemanticsAtLeastOnce
	protective.BatchSize = 5
	protective.MessageTimeout = 3 * time.Second

	// good, good, bad, bad, good — with merging that is three entries:
	// stream @0, protective @60s, stream @120s... the two bad segments
	// merge, as do the leading good ones.
	trace := thresholdTrace(t, []float64{0.005, 0.006, 0.16, 0.2, 0.004})
	entries, err := ThresholdSchedule(trace, stream, protective, 30*time.Second, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d (%+v), want 3 after merging", len(entries), entries)
	}
	if entries[0].At != 0 || !sameConfig(entries[0].Features, stream) {
		t.Errorf("entry 0 = %+v, want the stream config at 0", entries[0])
	}
	if entries[1].At != 60*time.Second || !sameConfig(entries[1].Features, protective) {
		t.Errorf("entry 1 = %+v, want the protective config at 60s", entries[1])
	}
	if entries[2].At != 120*time.Second || !sameConfig(entries[2].Features, stream) {
		t.Errorf("entry 2 = %+v, want the stream config back at 120s", entries[2])
	}
	// Workload features always come from the stream, even under the
	// protective configuration.
	if entries[1].Features.MessageSize != stream.MessageSize {
		t.Errorf("protective entry message size = %d, want the stream's %d",
			entries[1].Features.MessageSize, stream.MessageSize)
	}
	// A finer checkpoint interval sub-samples segments without changing
	// the switch points.
	fine, err := ThresholdSchedule(trace, stream, protective, 10*time.Second, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(fine) != len(entries) {
		t.Errorf("fine-interval entries = %d, want %d", len(fine), len(entries))
	}
}
