// Quickstart walks the library's four layers end to end:
//
//  1. measure reliability on the simulated testbed,
//  2. collect a small training sweep and fit the predictor (Eq. 1),
//  3. score configurations with the weighted KPI γ (Eq. 2),
//  4. let the stepwise search pick a better configuration (Sec. V).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"kafkarel"
)

func main() {
	log.SetFlags(0)

	// --- 1. Measure one configuration under an injected fault. ---------
	stream := kafkarel.Features{
		MessageSize:    200,             // M: ~web access record
		Timeliness:     5 * time.Second, // S
		DelayMs:        60,              // D: injected one-way delay
		LossRate:       0.18,            // L: injected packet loss
		Semantics:      kafkarel.AtMostOnce,
		BatchSize:      1,
		PollInterval:   0, // full load
		MessageTimeout: 500 * time.Millisecond,
	}
	res, err := kafkarel.RunExperiment(kafkarel.Experiment{
		Features: stream,
		Messages: 5000,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured: P_l=%.3f P_d=%.4f throughput=%.1f msg/s\n",
		res.Pl, res.Pd, res.Throughput)

	// --- 2. Collect a sweep around this operating point and train. -----
	var grid []kafkarel.Features
	for _, sem := range []int{kafkarel.AtMostOnce, kafkarel.AtLeastOnce} {
		for _, l := range []float64{0, 0.08, 0.15, 0.25} {
			for _, b := range []int{1, 2, 5} {
				for _, delta := range []time.Duration{0, 30 * time.Millisecond} {
					for _, to := range []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 3 * time.Second} {
						v := stream
						v.Semantics = sem
						v.LossRate = l
						v.BatchSize = b
						v.PollInterval = delta
						v.MessageTimeout = to
						grid = append(grid, v)
					}
				}
			}
		}
	}
	fmt.Printf("sweeping %d feature points...\n", len(grid))
	ds, err := kafkarel.CollectDataset(grid, kafkarel.SweepOptions{Messages: 1500, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	pred, metrics, err := kafkarel.TrainPredictor(ds, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained predictor: held-out MAE=%.4f (paper bar: 0.02)\n", metrics.MAE)

	p, err := pred.Predict(stream)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted at the measured point: P̂_l=%.3f P̂_d=%.4f\n", p.Pl, p.Pd)

	// --- 3. Score with the weighted KPI. --------------------------------
	weights := kafkarel.Weights{0.875, 0.125} // completeness first
	eval, err := kafkarel.NewEvaluator(pred, weights)
	if err != nil {
		log.Fatal(err)
	}
	score, err := eval.Score(stream)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("γ(current config) = %.3f\n", score.Gamma)

	// --- 4. Climb γ along the grid the predictor was trained on. -------
	searcher, err := kafkarel.NewSearcher(eval, grid)
	if err != nil {
		log.Fatal(err)
	}
	better, bestScore, err := searcher.Improve(stream)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search suggests: semantics=%d B=%d δ=%v T_o=%v  →  γ=%.3f\n",
		better.Semantics, better.BatchSize, better.PollInterval, better.MessageTimeout,
		bestScore.Gamma)

	// Verify the suggestion on the testbed.
	verify, err := kafkarel.RunExperiment(kafkarel.Experiment{
		Features: better,
		Messages: 5000,
		Seed:     3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified on the testbed: P_l %.3f → %.3f\n", res.Pl, verify.Pl)
}
