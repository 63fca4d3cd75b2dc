package kafkarel_test

import (
	"context"
	"testing"
	"time"

	"kafkarel"
	"kafkarel/internal/chaos"
	"kafkarel/internal/figures"
	"kafkarel/internal/obs"
	"kafkarel/internal/testbed"
)

// The shape tests below assert the qualitative structure of every
// reproduced figure — orderings, monotone trends, knees and crossovers —
// on reduced message counts. EXPERIMENTS.md records the full-scale point
// values next to the paper's.

const shapeMessages = 2500

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction; skipped in -short")
	}
	points, err := figures.Fig4(figures.Options{Messages: shapeMessages, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl := map[[2]int]float64{}
	for _, p := range points {
		pl[[2]int{p.MessageSize, p.Semantics}] = p.Pl
	}
	amo := func(m int) float64 { return pl[[2]int{m, kafkarel.AtMostOnce}] }
	alo := func(m int) float64 { return pl[[2]int{m, kafkarel.AtLeastOnce}] }

	// Small messages are far likelier to be lost (Sec. IV-A).
	if amo(100) < amo(1000)+0.3 {
		t.Errorf("at-most-once: Pl(100B)=%.3f not ≫ Pl(1000B)=%.3f", amo(100), amo(1000))
	}
	// At 100 B, at-least-once loses substantially less (paper: 63% vs 85%).
	if alo(100) >= amo(100)-0.05 {
		t.Errorf("at-least-once Pl(100B)=%.3f not below at-most-once %.3f", alo(100), amo(100))
	}
	// Large messages: both semantics nearly lossless; at-least-once best.
	if amo(1000) > 0.10 || alo(1000) > 0.05 {
		t.Errorf("large messages still lossy: amo=%.3f alo=%.3f", amo(1000), alo(1000))
	}
	// The paper's takeaway: above ~300 B the at-most-once risk is low.
	if amo(300) > 0.15 {
		t.Errorf("Pl(300B, at-most-once)=%.3f; paper expects low risk ≥300B", amo(300))
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction; skipped in -short")
	}
	points, err := figures.Fig5(figures.Options{Messages: 4000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pl := map[[2]int64]float64{}
	for _, p := range points {
		pl[[2]int64{int64(p.Timeout / time.Millisecond), int64(p.Semantics)}] = p.Pl
	}
	amo := func(ms int64) float64 { return pl[[2]int64{ms, int64(kafkarel.AtMostOnce)}] }
	alo := func(ms int64) float64 { return pl[[2]int64{ms, int64(kafkarel.AtLeastOnce)}] }

	// Loss falls as the delivery budget grows, approaching zero.
	if amo(250) < amo(2500)+0.08 {
		t.Errorf("at-most-once: Pl(250ms)=%.3f not ≫ Pl(2500ms)=%.3f", amo(250), amo(2500))
	}
	if amo(2500) > 0.05 {
		t.Errorf("Pl(2500ms)=%.3f; paper expects ≈0 for large T_o", amo(2500))
	}
	// Short budgets cause real loss even with no faults (paper: T_o below
	// ~1500 ms loses messages at full load).
	if amo(500) < 0.05 {
		t.Errorf("Pl(500ms)=%.3f; expected visible full-load loss", amo(500))
	}
	// At-least-once significantly reduces the short-budget loss.
	if alo(500) >= amo(500) {
		t.Errorf("at-least-once Pl(500ms)=%.3f not below at-most-once %.3f", alo(500), amo(500))
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction; skipped in -short")
	}
	points, err := figures.Fig6(figures.Options{Messages: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	first, last := points[0], points[len(points)-1]
	if first.PollInterval != 0 || last.PollInterval != 90*time.Millisecond {
		t.Fatalf("unexpected axis: %v..%v", first.PollInterval, last.PollInterval)
	}
	// Full load loses; δ=90 ms cuts loss below 10% (the paper's headline).
	if first.Pl < 0.05 {
		t.Errorf("Pl(δ=0)=%.3f; expected visible full-load loss", first.Pl)
	}
	if last.Pl > 0.10 {
		t.Errorf("Pl(δ=90ms)=%.3f; paper expects <10%%", last.Pl)
	}
	if last.Pl >= first.Pl {
		t.Errorf("increasing δ did not reduce loss: %.3f -> %.3f", first.Pl, last.Pl)
	}
	// Roughly monotone: each point at most 5pts above its predecessor.
	for i := 1; i < len(points); i++ {
		if points[i].Pl > points[i-1].Pl+0.05 {
			t.Errorf("non-monotone at δ=%v: %.3f after %.3f",
				points[i].PollInterval, points[i].Pl, points[i-1].Pl)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction; skipped in -short")
	}
	points, err := figures.Fig7(figures.Options{Messages: shapeMessages, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	pl := map[[3]int]float64{}
	for _, p := range points {
		pl[[3]int{int(p.LossRate * 100), p.BatchSize, p.Semantics}] = p.Pl
	}
	alo := func(lPct, b int) float64 { return pl[[3]int{lPct, b, kafkarel.AtLeastOnce}] }

	// The knee: TCP copes below ≈8% loss, collapses well above it
	// (Sec. IV-D).
	base := alo(0, 1)
	if alo(8, 1) > base+0.20 {
		t.Errorf("loss already collapsing at 8%%: %.3f vs baseline %.3f", alo(8, 1), base)
	}
	if alo(30, 1) < alo(8, 1)+0.25 {
		t.Errorf("no collapse by 30%%: %.3f vs %.3f at 8%%", alo(30, 1), alo(8, 1))
	}
	// Batching pushes the collapse out: at 16-20% loss, larger batches
	// save a meaningful fraction of messages versus streaming (B=1).
	bestBatched := alo(20, 2)
	for _, bsz := range []int{5, 10} {
		if v := alo(20, bsz); v < bestBatched {
			bestBatched = v
		}
	}
	if bestBatched >= alo(20, 1)-0.05 {
		t.Errorf("batching ineffective at 20%%: best batched %.3f vs B=1 %.3f", bestBatched, alo(20, 1))
	}
	if alo(16, 10) >= alo(16, 1) {
		t.Errorf("B=10 not below B=1 at 16%%: %.3f vs %.3f", alo(16, 10), alo(16, 1))
	}
	// At very high loss everything drowns (paper: at 30% configuration
	// changes matter little; by 50% loss is near total for streaming).
	if alo(50, 1) < 0.5 {
		t.Errorf("Pl(50%%)=%.3f; expected near-total loss", alo(50, 1))
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction; skipped in -short")
	}
	points, err := figures.Fig8(figures.Options{Messages: shapeMessages, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	anyDup := false
	for _, p := range points {
		if p.Pd < 0 || p.Pd > 1 {
			t.Fatalf("Pd out of range: %+v", p)
		}
		if p.LossRate >= 0.15 && p.Pd > 0 {
			anyDup = true
		}
	}
	if !anyDup {
		t.Error("no duplicates observed at moderate loss; Case 5 mechanism dead")
	}
}

func TestFig9Trace(t *testing.T) {
	series, err := figures.Fig9(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 60 { // 10 minutes at 10 s
		t.Fatalf("series = %d points", len(series))
	}
	calm, lossy, spike := false, false, false
	for _, p := range series {
		if p.Loss < 0.02 {
			calm = true
		}
		if p.Loss > 0.08 {
			lossy = true
		}
		if p.DelayMs > 100 {
			spike = true
		}
	}
	if !calm || !lossy || !spike {
		t.Errorf("trace lacks Fig. 9 character: calm=%v lossy=%v delay-spike=%v", calm, lossy, spike)
	}
}

func TestTable1CaseDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction; skipped in -short")
	}
	res, err := figures.Table1(figures.Options{Messages: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	byCase := map[string]uint64{}
	var sum uint64
	for _, r := range res.Rows {
		byCase[r.Case.String()] = r.Count
		sum += r.Count
	}
	if sum != res.Total {
		t.Errorf("case counts %d do not sum to total %d", sum, res.Total)
	}
	// A moderately faulted retry-enabled run exercises the state machine:
	// most messages deliver first try (Case 1), some deliver via retries
	// (Case 4), and the consumer sees duplicates (Case 5).
	if byCase["case1"] < res.Total/2 {
		t.Errorf("case1 = %d of %d; expected majority", byCase["case1"], res.Total)
	}
	if byCase["case4"] == 0 {
		t.Error("no retry-delivered messages (Case 4)")
	}
	if res.Case5 == 0 {
		t.Error("no duplicates (Case 5)")
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	// A compressed version of the quickstart: measure → train → predict →
	// score → search, all through the public API.
	grid := []kafkarel.Features{}
	for _, sem := range []int{kafkarel.AtMostOnce, kafkarel.AtLeastOnce} {
		for _, l := range []float64{0, 0.1, 0.2} {
			for _, b := range []int{1, 2, 4} {
				grid = append(grid, kafkarel.Features{
					MessageSize:    200,
					Timeliness:     5 * time.Second,
					DelayMs:        20,
					LossRate:       l,
					Semantics:      sem,
					BatchSize:      b,
					PollInterval:   30 * time.Millisecond,
					MessageTimeout: time.Second,
				})
			}
		}
	}
	ds, err := kafkarel.CollectDataset(grid, kafkarel.SweepOptions{Messages: 400, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(grid) {
		t.Fatalf("collected %d samples for %d grid points", len(ds), len(grid))
	}

	pred, metrics, err := kafkarel.TrainPredictor(ds, 11)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.MAE > 0.15 {
		t.Errorf("tiny-grid MAE = %v; training is broken", metrics.MAE)
	}
	eval, err := kafkarel.NewEvaluator(pred, kafkarel.Weights{0.75, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	searcher, err := kafkarel.NewSearcher(eval, grid)
	if err != nil {
		t.Fatal(err)
	}
	start := grid[0]
	start.LossRate = 0.2
	_, score, err := searcher.Improve(start)
	if err != nil {
		t.Fatal(err)
	}
	if score.Gamma <= 0 || score.Gamma > 1 {
		t.Errorf("γ = %v", score.Gamma)
	}
}

func TestObservabilityFacade(t *testing.T) {
	// The observability surface of a run started through the public API:
	// metrics ride along on every Result, and an attached Tracer's events
	// feed the duplicate-chain analysis.
	e := kafkarel.Experiment{
		Features: kafkarel.Features{
			MessageSize:    200,
			Timeliness:     5 * time.Second,
			DelayMs:        100,
			LossRate:       0.15,
			Semantics:      kafkarel.AtLeastOnce,
			BatchSize:      2,
			MessageTimeout: 3 * time.Second,
		},
		Messages: 2000,
		Seed:     7,
	}
	e.Tracer = obs.NewTracer(1 << 16)
	res, err := kafkarel.RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.SegmentsSent == 0 || m.Retransmits == 0 || m.BrokerAppends == 0 ||
		m.RecordsEnqueued != 2000 || m.RTOMax == 0 {
		t.Errorf("metrics not populated: %s", m.Encode())
	}
	events := e.Tracer.Events()
	if len(events) == 0 {
		t.Fatal("the tracer holds no events")
	}
	complete := 0
	for _, chain := range obs.DuplicateChains(events) {
		if obs.IsCompleteDuplicateChain(chain) {
			complete++
		}
	}
	if complete == 0 {
		t.Error("no complete Fig. 8 duplicate chain in the traced run")
	}
}

func TestProducerScalingReducesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment; skipped in -short")
	}
	// Sec. IV-C: an overloaded producer loses messages; scaling to N
	// producers at N× the poll interval keeps the aggregate rate but
	// bounds each producer's queue. The offered rate is one 200 B
	// producer's full-load intake, so the single producer polls back to
	// back.
	f := kafkarel.Fleet{
		Features: kafkarel.Features{
			MessageSize:    200,
			Timeliness:     5 * time.Second,
			DelayMs:        10,
			Semantics:      kafkarel.AtMostOnce,
			BatchSize:      1,
			MessageTimeout: 500 * time.Millisecond,
		},
		Producers:   1,
		Topics:      1,
		Partitions:  1,
		Messages:    6000,
		Seed:        13,
		UsersPerSec: testbed.FullLoadRate(200),
	}
	single, err := kafkarel.RunFleet(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Producers, f.Topics = 4, 4
	scaled, err := kafkarel.RunFleet(f)
	if err != nil {
		t.Fatal(err)
	}
	if single.Pl < 0.05 {
		t.Errorf("single overloaded producer Pl = %.3f; expected visible loss", single.Pl)
	}
	if scaled.Pl >= single.Pl/2 {
		t.Errorf("scaling did not relieve the producer: %.3f vs %.3f", scaled.Pl, single.Pl)
	}
	if scaled.Acquired != single.Acquired {
		t.Errorf("scaled run acquired %d, single %d", scaled.Acquired, single.Acquired)
	}
}

// TestTxnFacade drives the transactional surface end to end the way
// cmd/chaos -txn does: generate a fault plan, run the pipeline, verify.
func TestTxnFacade(t *testing.T) {
	plan := chaos.GenerateTxnPlan(3, chaos.TxnGenConfig{Unclean: true})
	res, err := testbed.RunTxnCtx(context.Background(), testbed.TxnExperiment{
		Seed: 3, Messages: 120, AbortEvery: 4, FaultPlan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TxnStats.TxnsCommitted == 0 {
		t.Fatal("no transaction committed")
	}
	v := chaos.VerifyTxn(chaos.TxnInput{
		Plan:              plan,
		Attempts:          res.Attempts,
		InputKeys:         res.InputKeys,
		CommittedOffsets:  res.CommittedOffsets,
		OutputCommitted:   res.OutputCommitted,
		OutputUncommitted: res.OutputUncommitted,
		Completed:         res.Completed,
	})
	if !v.OK() {
		t.Fatalf("violations: %v", v.Violations)
	}
}
