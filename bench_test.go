package kafkarel_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation at reduced message counts and reports the headline
// metric of each as a custom benchmark metric. Run with:
//
//	go test -bench=. -benchmem
//
// For full-scale runs (10^5-10^6 messages per point) use cmd/repro.

import (
	"testing"
	"time"

	"kafkarel"
	"kafkarel/internal/figures"
	"kafkarel/internal/sweep"
)

const benchMessages = 2000

// BenchmarkTable1MessageStates empirically populates Table I's case
// distribution (Fig. 2 state machine) under a faulted retry-enabled run.
func BenchmarkTable1MessageStates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Table1(figures.Options{Messages: benchMessages, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.Share, row.Case.String()+"_share")
		}
		b.ReportMetric(float64(res.Case5)/float64(res.Total), "case5_share")
	}
}

// BenchmarkFig3Sweep measures the training-data collection design: the
// per-experiment cost of sweeping the Fig. 3 feature space.
func BenchmarkFig3Sweep(b *testing.B) {
	grid := sweep.NormalGrid()[:8]
	for i := 0; i < b.N; i++ {
		ds, err := kafkarel.CollectDataset(grid, kafkarel.SweepOptions{
			Messages: 500,
			Seed:     uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(ds)), "experiments")
	}
}

// BenchmarkFig4MessageSize regenerates the message-size study
// (P_l vs M at D=100 ms, L=19%).
func BenchmarkFig4MessageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := figures.Fig4(figures.Options{Messages: benchMessages, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.MessageSize == 100 && p.Semantics == kafkarel.AtMostOnce {
				b.ReportMetric(p.Pl, "Pl_amo_100B")
			}
			if p.MessageSize == 100 && p.Semantics == kafkarel.AtLeastOnce {
				b.ReportMetric(p.Pl, "Pl_alo_100B")
			}
			if p.MessageSize == 1000 && p.Semantics == kafkarel.AtMostOnce {
				b.ReportMetric(p.Pl, "Pl_amo_1000B")
			}
		}
	}
}

// BenchmarkFig5MessageTimeout regenerates the T_o study at full load with
// no faults.
func BenchmarkFig5MessageTimeout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := figures.Fig5(figures.Options{Messages: benchMessages, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Semantics != kafkarel.AtMostOnce {
				continue
			}
			switch p.Timeout {
			case 500 * time.Millisecond:
				b.ReportMetric(p.Pl, "Pl_amo_500ms")
			case 2500 * time.Millisecond:
				b.ReportMetric(p.Pl, "Pl_amo_2500ms")
			}
		}
	}
}

// BenchmarkFig6PollingInterval regenerates the δ study at T_o = 500 ms.
func BenchmarkFig6PollingInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := figures.Fig6(figures.Options{Messages: benchMessages, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Pl, "Pl_fullload")
		b.ReportMetric(points[len(points)-1].Pl, "Pl_delta90ms")
	}
}

// BenchmarkFig7Batching regenerates the batching-vs-loss family
// (P_l vs L for B ∈ {1..10}, both semantics).
func BenchmarkFig7Batching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := figures.Fig7(figures.Options{Messages: benchMessages, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Semantics != kafkarel.AtLeastOnce || p.LossRate != 0.20 {
				continue
			}
			switch p.BatchSize {
			case 1:
				b.ReportMetric(p.Pl, "Pl_alo_L20_B1")
			case 10:
				b.ReportMetric(p.Pl, "Pl_alo_L20_B10")
			}
		}
	}
}

// BenchmarkFig8Duplicates regenerates the duplicate study
// (P_d vs B under at-least-once).
func BenchmarkFig8Duplicates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := figures.Fig8(figures.Options{Messages: benchMessages, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		var maxPd float64
		for _, p := range points {
			if p.Pd > maxPd {
				maxPd = p.Pd
			}
		}
		b.ReportMetric(maxPd, "Pd_max")
	}
}

// BenchmarkFig9NetworkTrace generates the dynamic-configuration network
// trace (Pareto delay, Gilbert-Elliot loss).
func BenchmarkFig9NetworkTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series, err := figures.Fig9(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		var meanLoss float64
		for _, p := range series {
			meanLoss += p.Loss
		}
		b.ReportMetric(meanLoss/float64(len(series)), "mean_loss")
	}
}

// BenchmarkANNTraining trains the Eq. 1 predictor on a reduced Fig. 3
// sweep and reports the held-out MAE (the paper's bar is 0.02).
func BenchmarkANNTraining(b *testing.B) {
	// Stride-sample both Fig. 3 grids so the reduced sweep still spans
	// every feature dimension.
	var grid []kafkarel.Features
	for i, v := range sweep.NormalGrid() {
		if i%4 == 0 {
			grid = append(grid, v)
		}
	}
	for i, v := range sweep.AbnormalGrid() {
		if i%6 == 0 {
			grid = append(grid, v)
		}
	}
	ds, err := kafkarel.CollectDataset(grid, kafkarel.SweepOptions{Messages: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, metrics, err := kafkarel.TrainPredictor(ds, kafkarel.TrainConfig{
			Seed:      uint64(i),
			TargetMAE: 0.01,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metrics.MAE, "held_out_MAE")
	}
}

// BenchmarkTable2DynamicConfig runs the dynamic-configuration pipeline
// (reduced: one stream, short trace) and reports R_l default vs dynamic.
func BenchmarkTable2DynamicConfig(b *testing.B) {
	spec := kafkarel.TraceSpec{
		Duration:     4 * time.Minute,
		Interval:     10 * time.Second,
		DelayScaleMs: 20,
		DelayShape:   1.5,
		GEGoodToBad:  0.25,
		GEBadToGood:  0.3,
		GoodLoss:     0.005,
		BadLoss:      0.17,
	}
	for i := 0; i < b.N; i++ {
		outcomes, err := kafkarel.EvaluateDynamicConfiguration(
			[]kafkarel.StreamProfile{kafkarel.WebLogs},
			kafkarel.DynConfOptions{
				Messages:      6000,
				Seed:          uint64(i) + 5,
				TraceSpec:     spec,
				Interval:      30 * time.Second,
				TrainMessages: 800,
			})
		if err != nil {
			b.Fatal(err)
		}
		o := outcomes[0]
		b.ReportMetric(o.DefaultRl, "Rl_default")
		b.ReportMetric(o.DynamicRl, "Rl_dynamic")
		b.ReportMetric(o.DynamicRd, "Rd_dynamic")
	}
}

// BenchmarkProducerScaling compares an overloaded single producer with a
// scaled-out fleet at the same aggregate rate (Sec. IV-C).
func BenchmarkProducerScaling(b *testing.B) {
	e := kafkarel.Experiment{
		Features: kafkarel.Features{
			MessageSize:    200,
			Timeliness:     5 * time.Second,
			DelayMs:        10,
			Semantics:      kafkarel.AtMostOnce,
			BatchSize:      1,
			PollInterval:   0,
			MessageTimeout: 500 * time.Millisecond,
		},
		Messages: benchMessages,
	}
	for i := 0; i < b.N; i++ {
		e.Seed = uint64(i)
		single, err := kafkarel.RunExperiment(e)
		if err != nil {
			b.Fatal(err)
		}
		scaled, err := kafkarel.RunScaledExperiment(e, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(single.Pl, "Pl_1_producer")
		b.ReportMetric(scaled.Pl, "Pl_4_producers")
	}
}
