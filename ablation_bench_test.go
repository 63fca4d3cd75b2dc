package kafkarel_test

// Ablation benchmarks isolate the mechanisms DESIGN.md §5 credits for
// the paper's figure shapes: remove one mechanism, re-run the relevant
// operating point, and report the metric with and without it. The
// send-path stall knock-out asserts its result instead:
// internal/testbed's TestSendPathStallsDriveFullLoadLoss.

import (
	"testing"
	"time"

	"kafkarel"
	"kafkarel/internal/chaos"
)

const benchMessages = 2000

// BenchmarkAblationBackpressure removes at-least-once intake pacing by
// inflating the queue limit: the bounded-buffer backpressure is what
// keeps acknowledged delivery nearly lossless at full load (Fig. 5's
// at-least-once curve).
func BenchmarkAblationBackpressure(b *testing.B) {
	v := kafkarel.Features{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        100,
		LossRate:       0.19,
		Semantics:      kafkarel.AtLeastOnce,
		BatchSize:      1,
		PollInterval:   0,
		MessageTimeout: 1500 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		bounded, err := kafkarel.RunExperiment(kafkarel.Experiment{
			Features: v, Messages: benchMessages, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		unbounded, err := kafkarel.RunExperiment(kafkarel.Experiment{
			Features: v, Messages: benchMessages, Seed: uint64(i), QueueLimit: 1 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bounded.Pl, "Pl_bounded_queue")
		b.ReportMetric(unbounded.Pl, "Pl_unbounded_queue")
	}
}

// BenchmarkAblationSpuriousRetry stretches the per-attempt request
// timeout far beyond any delay inflation: Case 5 duplicates (Fig. 8)
// should vanish, confirming the spurious-timeout retry race is the
// duplicate mechanism.
func BenchmarkAblationSpuriousRetry(b *testing.B) {
	v := kafkarel.Features{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        100,
		LossRate:       0.15,
		Semantics:      kafkarel.AtLeastOnce,
		BatchSize:      4,
		PollInterval:   0,
		MessageTimeout: 3 * time.Second,
	}
	for i := 0; i < b.N; i++ {
		racy, err := kafkarel.RunExperiment(kafkarel.Experiment{
			Features: v, Messages: benchMessages, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		patient, err := kafkarel.RunExperiment(kafkarel.Experiment{
			Features: v, Messages: benchMessages, Seed: uint64(i),
			RequestTimeout: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(racy.Pd, "Pd_2s_request_timeout")
		b.ReportMetric(patient.Pd, "Pd_30s_request_timeout")
	}
}

// BenchmarkAblationIdempotence compares at-least-once with the
// exactly-once extension at the same duplicate-prone operating point:
// broker-side sequence de-duplication should eliminate P_d.
func BenchmarkAblationIdempotence(b *testing.B) {
	v := kafkarel.Features{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        100,
		LossRate:       0.15,
		Semantics:      kafkarel.AtLeastOnce,
		BatchSize:      4,
		PollInterval:   0,
		MessageTimeout: 3 * time.Second,
	}
	for i := 0; i < b.N; i++ {
		alo, err := kafkarel.RunExperiment(kafkarel.Experiment{
			Features: v, Messages: benchMessages, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		eo := v
		eo.Semantics = kafkarel.ExactlyOnce
		idem, err := kafkarel.RunExperiment(kafkarel.Experiment{
			Features: eo, Messages: benchMessages, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(alo.Pd, "Pd_at_least_once")
		b.ReportMetric(idem.Pd, "Pd_exactly_once")
	}
}

// BenchmarkBrokerFailover measures the broker-failure extension: the
// partition leader crashes and recovers mid-run while retries keep the
// stream alive.
func BenchmarkBrokerFailover(b *testing.B) {
	v := kafkarel.Features{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        10,
		Semantics:      kafkarel.AtLeastOnce,
		BatchSize:      1,
		PollInterval:   20 * time.Millisecond,
		MessageTimeout: 10 * time.Second,
	}
	for i := 0; i < b.N; i++ {
		res, err := kafkarel.RunExperiment(kafkarel.Experiment{
			Features:       v,
			Messages:       benchMessages,
			Seed:           uint64(i),
			MaxRetries:     20,
			RequestTimeout: 200 * time.Millisecond,
			FaultPlan: chaos.Plan{Faults: []chaos.Fault{
				{Kind: chaos.BrokerCrash, At: 5 * time.Second, Broker: 0},
				{Kind: chaos.BrokerRecover, At: 15 * time.Second, Broker: 0},
			}},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Pl, "Pl_with_failover")
	}
}
