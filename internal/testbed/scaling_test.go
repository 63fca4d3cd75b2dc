package testbed

import (
	"bytes"
	"context"
	"testing"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/obs"
)

// A scaled run fans its independent per-producer simulations out over
// the worker pool; the merged aggregate must be identical for every
// worker count.
func TestRunScaledDeterministicAcrossWorkers(t *testing.T) {
	e := Experiment{
		Features: features.Vector{
			MessageSize: 200, Timeliness: 5 * time.Second, DelayMs: 10,
			LossRate: 0.1, Semantics: features.SemanticsAtMostOnce,
			BatchSize: 1, MessageTimeout: 500 * time.Millisecond,
		},
		Messages: 600,
		Seed:     7,
	}
	var ref Result
	for i, workers := range []int{1, 4, 8} {
		got, err := RunScaledContext(context.Background(), e, 3, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = got
			continue
		}
		if got.Pl != ref.Pl || got.Pd != ref.Pd || got.Acquired != ref.Acquired ||
			got.Report != ref.Report || got.Duration != ref.Duration ||
			got.Throughput != ref.Throughput {
			t.Errorf("workers=%d: aggregate %+v differs from workers=1 %+v", workers, got, ref)
		}
		if got.Metrics != ref.Metrics {
			t.Errorf("workers=%d: metrics differ from workers=1:\n%s\nvs\n%s",
				workers, got.Metrics.Encode(), ref.Metrics.Encode())
		}
		if !bytes.Equal(got.Metrics.Encode(), ref.Metrics.Encode()) {
			t.Errorf("workers=%d: metrics encoding not byte-identical", workers)
		}
	}
	if ref.Acquired != 600 {
		t.Errorf("acquired %d of 600", ref.Acquired)
	}
	if ref.Metrics.SegmentsSent == 0 || ref.Metrics.RecordsEnqueued != 600 {
		t.Errorf("aggregate metrics look empty: %s", ref.Metrics.Encode())
	}
}

// A single (unscaled) run's MetricsSnapshot must be byte-identical run
// to run for a fixed seed — the determinism contract extended to the
// observability layer, with a faulted at-least-once configuration that
// exercises retries, retransmits and RTO backoff.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	e := Experiment{
		Features: features.Vector{
			MessageSize: 200, Timeliness: 5 * time.Second, DelayMs: 40,
			LossRate: 0.12, Semantics: features.SemanticsAtLeastOnce,
			BatchSize: 2, MessageTimeout: 1500 * time.Millisecond,
		},
		Messages: 400,
		Seed:     11,
	}
	ref, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Metrics.Retransmits == 0 || ref.Metrics.RTOMax == 0 {
		t.Errorf("faulted run shows no transport recovery activity: %s", ref.Metrics.Encode())
	}
	for i := 0; i < 2; i++ {
		got, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Metrics.Encode(), ref.Metrics.Encode()) {
			t.Fatalf("rerun %d: metrics not byte-identical:\n%s\nvs\n%s",
				i, got.Metrics.Encode(), ref.Metrics.Encode())
		}
	}
}

// DisableMetrics must leave Result.Metrics zero while the reliability
// results stay identical to an instrumented run.
func TestDisableMetrics(t *testing.T) {
	e := Experiment{
		Features: features.Vector{
			MessageSize: 200, Timeliness: 5 * time.Second, DelayMs: 10,
			LossRate: 0.05, Semantics: features.SemanticsAtLeastOnce,
			BatchSize: 1, MessageTimeout: 1 * time.Second,
		},
		Messages: 200,
		Seed:     3,
	}
	on, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	e.DisableMetrics = true
	off, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if off.Metrics != (MetricsSnapshot{}) {
		t.Errorf("disabled run returned metrics: %s", off.Metrics.Encode())
	}
	if on.Pl != off.Pl || on.Pd != off.Pd || on.Report != off.Report || on.Duration != off.Duration {
		t.Errorf("metrics toggle changed results: on={Pl %v Pd %v} off={Pl %v Pd %v}",
			on.Pl, on.Pd, off.Pl, off.Pd)
	}
}

// A traced run must reject scaling, and a single-producer traced run
// must produce the same results as an untraced one while capturing the
// event stream.
func TestTracerScalingGuardAndNeutrality(t *testing.T) {
	e := Experiment{
		Features: features.Vector{
			MessageSize: 200, Timeliness: 5 * time.Second, DelayMs: 10,
			LossRate: 0.05, Semantics: features.SemanticsAtLeastOnce,
			BatchSize: 1, MessageTimeout: 1 * time.Second,
		},
		Messages: 200,
		Seed:     3,
	}
	plain, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	e.Tracer = obs.NewTracer(1 << 16)
	if _, err := RunScaled(e, 2); err == nil {
		t.Error("scaled traced run did not error")
	}
	traced, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Pl != plain.Pl || traced.Pd != plain.Pd || traced.Metrics != plain.Metrics {
		t.Error("attaching a tracer changed run results")
	}
	if e.Tracer.Total() == 0 {
		t.Error("tracer captured no events")
	}
	evs := e.Tracer.Events()
	sawEnqueue, sawSend := false, false
	for _, ev := range evs {
		switch ev.Type {
		case obs.EvRecordEnqueue:
			sawEnqueue = true
		case obs.EvSegmentSend:
			sawSend = true
		}
		if ev.At < 0 {
			t.Fatalf("event with negative timestamp: %+v", ev)
		}
	}
	if !sawEnqueue || !sawSend {
		t.Errorf("trace missing lifecycle events (enqueue=%v send=%v)", sawEnqueue, sawSend)
	}
}

// A scaled aggregate completed only if every sub-run drained its source
// before the horizon. Three messages over two producers split 1 + 2 and
// each producer polls about every two seconds: at a three-second horizon
// the first producer has finished and the second still owes a message.
func TestRunScaledCompletedNeedsEverySubRun(t *testing.T) {
	e := Experiment{
		Features: features.Vector{
			MessageSize: 200, Timeliness: 5 * time.Second, DelayMs: 10,
			Semantics: features.SemanticsAtLeastOnce, BatchSize: 1,
			PollInterval: time.Second, MessageTimeout: 500 * time.Millisecond,
		},
		Messages:   3,
		Seed:       7,
		MaxSimTime: 3 * time.Second,
	}
	res, err := RunScaled(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquired != 2 || res.Producer.Delivered != 2 {
		t.Fatalf("acquired=%d delivered=%d, want the first producer's one message and one of the second's two",
			res.Acquired, res.Producer.Delivered)
	}
	if res.Completed {
		t.Error("Completed = true although one producer was cut off mid-source")
	}
	e.MaxSimTime = time.Minute
	if res, err = RunScaled(e, 2); err != nil || !res.Completed || res.Acquired != 3 {
		t.Errorf("with room to finish: completed=%t acquired=%d err=%v", res.Completed, res.Acquired, err)
	}
}
