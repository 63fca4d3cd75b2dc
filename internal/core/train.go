package core

import (
	"fmt"
	"math"
	"sort"

	"kafkarel/internal/ann"
	"kafkarel/internal/features"
)

// testFraction of each semantics' samples is held out for evaluation.
const testFraction = 0.2

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
	Epochs       int
}

// Train fits one ANN per delivery semantics present in the dataset on
// 80 % of that semantics' samples and returns the routing predictor with
// its metrics on the other 20 %. The seed fixes the split, the weight
// initialisation and the shuffling.
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
	var pooledAE, pooledSE float64
	var pooledN int

	// Deterministic iteration order.
	sems := make([]int, 0, len(bySem))
	for s := range bySem {
		sems = append(sems, s)
	}
	sort.Ints(sems)

	for _, sem := range sems {
		model, test, sm, err := trainOne(sem, bySem[sem], seed)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("core: semantics %d: %w", sem, err)
		}
		p.models[sem] = model
		metrics.PerSemantics[sem] = sm
		metrics.HeldOut = append(metrics.HeldOut, test...)
		n := sm.TestSamples * outputsFor(sem)
		pooledAE += sm.MAE * float64(n)
		pooledSE += sm.RMSE * sm.RMSE * float64(n)
		pooledN += n
	}
	metrics.MAE = pooledAE / float64(pooledN)
	metrics.RMSE = math.Sqrt(pooledSE / float64(pooledN))
	return p, metrics, nil
}

func trainOne(sem int, sub features.Dataset, seed uint64) (*semModel, features.Dataset, SemanticsMetrics, error) {
	// Five samples are the fewest that leave one to test on.
	if len(sub) < 5 {
		return nil, nil, SemanticsMetrics{}, fmt.Errorf("only %d samples", len(sub))
	}
	train, test, err := sub.Split(testFraction, seed)
	if err != nil {
		return nil, nil, SemanticsMetrics{}, err
	}
	outs := outputsFor(sem)
	toXY := func(d features.Dataset) (x, y [][]float64) {
		for _, s := range d {
			x = append(x, encodeInput(s.X))
			target := []float64{s.Pl}
			if outs == 2 {
				target = append(target, s.Pd)
			}
			y = append(y, target)
		}
		return x, y
	}
	trainX, trainY := toXY(train)
	testX, testY := toXY(test)

	norm, err := features.FitNormalizer(trainX)
	if err != nil {
		return nil, nil, SemanticsMetrics{}, err
	}
	normTrainX, err := norm.ApplyAll(trainX)
	if err != nil {
		return nil, nil, SemanticsMetrics{}, err
	}
	normTestX, err := norm.ApplyAll(testX)
	if err != nil {
		return nil, nil, SemanticsMetrics{}, err
	}

	net := ann.New(inputDim, outs, seed^uint64(sem)<<32)
	res, err := net.Train(normTrainX, trainY)
	if err != nil {
		return nil, nil, SemanticsMetrics{}, err
	}
	mae, rmse, err := net.Evaluate(normTestX, testY)
	if err != nil {
		return nil, nil, SemanticsMetrics{}, err
	}
	return &semModel{net: net, norm: norm}, test, SemanticsMetrics{
		TrainSamples: len(train),
		TestSamples:  len(test),
		MAE:          mae,
		RMSE:         rmse,
		Epochs:       res.Epochs,
	}, nil
}
