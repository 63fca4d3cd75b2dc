// Weblogs reproduces the Table II "web server access records" scenario:
// timeliness is lax, duplicates are tolerable (idempotent processing),
// but the stream must be complete — KPI weights ω = 0.1, 0.1, 0.7, 0.1
// put almost everything on 1−P_l. The example shows the paper's
// batching lesson (Sec. IV-D): under moderate packet loss, accumulating
// even two messages per request pulls the producer back from the
// TCP-collapse regime.
//
// Run with: go run ./examples/weblogs
package main

import (
	"fmt"
	"log"
	"time"

	"kafkarel"
)

func main() {
	log.SetFlags(0)
	profile := kafkarel.WebLogs
	fmt.Printf("stream: %s (M≈%dB, S=%v, ω_l:ω_d=%.3g:%.3g)\n\n",
		profile.Name, profile.MeanSize, profile.Timeliness, profile.Weights[0], profile.Weights[1])

	base := kafkarel.Features{
		MessageSize:    profile.MeanSize,
		Timeliness:     profile.Timeliness,
		DelayMs:        20,
		Semantics:      kafkarel.AtLeastOnce,
		BatchSize:      1,
		PollInterval:   0, // records arrive as fast as the host reads them
		MessageTimeout: 1500 * time.Millisecond,
	}

	fmt.Println("P_l by batch size across packet-loss rates (at-least-once):")
	fmt.Println("  L\\B      1       2       5      10")
	for _, loss := range []float64{0.05, 0.10, 0.15, 0.20} {
		fmt.Printf("  %3.0f%%  ", 100*loss)
		for _, b := range []int{1, 2, 5, 10} {
			v := base
			v.LossRate = loss
			v.BatchSize = b
			res, err := kafkarel.RunExperiment(kafkarel.Experiment{
				Features: v,
				Messages: 4000,
				Seed:     11,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%6.3f  ", res.Pl)
		}
		fmt.Println()
	}

	// Train a small model over that slice and let the KPI (completeness-
	// heavy weights) choose the configuration at L = 15%.
	fmt.Println("\ntraining a predictor over the batching slice...")
	var grid []kafkarel.Features
	for _, loss := range []float64{0, 0.05, 0.10, 0.15, 0.20} {
		for _, b := range []int{1, 2, 5, 10} {
			v := base
			v.LossRate = loss
			v.BatchSize = b
			grid = append(grid, v)
		}
	}
	ds, err := kafkarel.CollectDataset(grid, kafkarel.SweepOptions{Messages: 2000, Seed: 12})
	if err != nil {
		log.Fatal(err)
	}
	pred, metrics, err := kafkarel.TrainPredictor(ds, 12)
	if err != nil {
		log.Fatal(err)
	}
	eval, err := kafkarel.NewEvaluator(pred, kafkarel.Weights(profile.Weights))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("held-out MAE = %.4f\n\n", metrics.MAE)

	at := base
	at.LossRate = 0.15
	fmt.Println("γ under the completeness-first weights at L = 15%:")
	bestB, bestGamma := 0, -1.0
	for _, b := range []int{1, 2, 5, 10} {
		v := at
		v.BatchSize = b
		score, err := eval.Score(v)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  B=%2d: γ=%.3f (P̂_l=%.3f)\n", b, score.Gamma, score.Pl)
		if score.Gamma > bestGamma {
			bestB, bestGamma = b, score.Gamma
		}
	}
	fmt.Printf("\nKPI selects B = %d — the paper's Sec. IV-D conclusion: when the\n", bestB)
	fmt.Println("message size cannot change, batching before sending significantly")
	fmt.Println("reduces the loss rate.")
}
