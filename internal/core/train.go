package core

import (
	"fmt"
	"sort"

	"kafkarel/internal/features"
	"kafkarel/internal/stats"
)

// testFraction of each semantics' samples is held out for evaluation.
const testFraction = 0.2

// targetClamp keeps each fitted probability inside [targetClamp,
// 1 − targetClamp], so the fit stays finite for an output the training
// split only ever measures at 0 (or 1): the intercept is not penalised.
const targetClamp = 1e-3

// Metrics reports per-semantics and overall evaluation results.
type Metrics struct {
	// MAE and RMSE are over the held-out test split, all outputs pooled.
	MAE  float64
	RMSE float64
	// PerSemantics breaks the evaluation down by delivery semantics.
	PerSemantics map[int]SemanticsMetrics
	// HeldOut is the test split itself, in ascending semantics order: the
	// samples no model was trained on.
	HeldOut features.Dataset
}

// SemanticsMetrics is one model's evaluation.
type SemanticsMetrics struct {
	TrainSamples int
	TestSamples  int
	MAE          float64
	RMSE         float64
}

// Train fits one model per delivery semantics present in the dataset on
// 80 % of that semantics' samples and returns the routing predictor with
// its metrics on the other 20 %. The seed fixes the split; the fit itself
// is deterministic.
func Train(ds features.Dataset, seed uint64) (*Predictor, Metrics, error) {
	if len(ds) == 0 {
		return nil, Metrics{}, fmt.Errorf("core: empty dataset")
	}

	bySem := make(map[int]features.Dataset)
	for _, s := range ds {
		if err := s.X.Validate(); err != nil {
			return nil, Metrics{}, fmt.Errorf("core: %w", err)
		}
		bySem[s.X.Semantics] = append(bySem[s.X.Semantics], s)
	}

	p := &Predictor{models: make(map[int]*semModel, len(bySem))}
	metrics := Metrics{PerSemantics: make(map[int]SemanticsMetrics, len(bySem))}
	var pooledPred, pooledTruth []float64

	// Deterministic iteration order.
	sems := make([]int, 0, len(bySem))
	for s := range bySem {
		sems = append(sems, s)
	}
	sort.Ints(sems)

	for _, sem := range sems {
		model, train, test, err := trainOne(sem, bySem[sem], seed)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("core: semantics %d: %w", sem, err)
		}
		var pred, truth []float64
		for _, s := range test {
			out, err := model.predict(encodeInput(s.X))
			if err != nil {
				return nil, Metrics{}, fmt.Errorf("core: semantics %d: %w", sem, err)
			}
			pred = append(pred, out...)
			truth = append(truth, targets(s, outputsFor(sem))...)
		}
		sm := SemanticsMetrics{TrainSamples: len(train), TestSamples: len(test)}
		if sm.MAE, sm.RMSE, err = maeRMSE(pred, truth); err != nil {
			return nil, Metrics{}, fmt.Errorf("core: semantics %d: %w", sem, err)
		}
		p.models[sem] = model
		metrics.PerSemantics[sem] = sm
		metrics.HeldOut = append(metrics.HeldOut, test...)
		pooledPred = append(pooledPred, pred...)
		pooledTruth = append(pooledTruth, truth...)
	}
	var err error
	if metrics.MAE, metrics.RMSE, err = maeRMSE(pooledPred, pooledTruth); err != nil {
		return nil, Metrics{}, fmt.Errorf("core: %w", err)
	}
	return p, metrics, nil
}

// maeRMSE returns the MAE and RMSE of pred against truth.
func maeRMSE(pred, truth []float64) (mae, rmse float64, err error) {
	if mae, err = stats.MAE(pred, truth); err != nil {
		return 0, 0, err
	}
	if rmse, err = stats.RMSE(pred, truth); err != nil {
		return 0, 0, err
	}
	return mae, rmse, nil
}

// targets is a sample's measured outputs: P_l, then P_d when the
// semantics can duplicate.
func targets(s features.Sample, outs int) []float64 {
	if outs == 1 {
		return []float64{s.Pl}
	}
	return []float64{s.Pl, s.Pd}
}

// trainOne splits one semantics' samples, fits the normaliser on the
// training part, and fits each output by ridge-penalised logistic
// regression on basis(normalised input).
func trainOne(sem int, sub features.Dataset, seed uint64) (*semModel, features.Dataset, features.Dataset, error) {
	// Five samples are the fewest that leave one to test on.
	if len(sub) < 5 {
		return nil, nil, nil, fmt.Errorf("only %d samples", len(sub))
	}
	train, test, err := sub.Split(testFraction, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	outs := outputsFor(sem)
	raw := make([][]float64, len(train))
	y := make([][]float64, outs)
	for o := range y {
		y[o] = make([]float64, len(train))
	}
	for i, s := range train {
		raw[i] = encodeInput(s.X)
		for o, v := range targets(s, outs) {
			y[o][i] = min(max(v, targetClamp), 1-targetClamp)
		}
	}
	norm, err := features.FitNormalizer(raw)
	if err != nil {
		return nil, nil, nil, err
	}
	x, err := norm.ApplyAll(raw)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := range x {
		x[i] = basis(x[i])
	}
	w := make([][]float64, outs)
	for o := range w {
		if w[o], err = fitLogistic(x, y[o]); err != nil {
			return nil, nil, nil, fmt.Errorf("output %d: %w", o, err)
		}
	}
	return &semModel{Norm: norm, Weights: w}, train, test, nil
}
