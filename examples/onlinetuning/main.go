// Onlinetuning demonstrates the repository's extension of the paper's
// declared future work (Sec. V: "Running an online algorithm for dynamic
// configuration is beyond the scope of this paper"): a controller that
// has NO forecast of the network. Every probe interval it reads the
// producer's own transport statistics — smoothed RTT as the delay
// estimate, retransmission rate as the loss estimate — feeds the
// estimates into the trained prediction model, and walks the
// configuration uphill in γ while the experiment runs.
//
// Run with: go run ./examples/onlinetuning
package main

import (
	"fmt"
	"log"
	"time"

	"kafkarel"
)

func main() {
	log.SetFlags(0)

	// A bursty unknown network (generated here, but the controller never
	// sees the trace — only its own socket statistics).
	spec := kafkarel.TraceSpec{
		Duration:     4 * time.Minute,
		Interval:     10 * time.Second,
		DelayScaleMs: 20,
		DelayShape:   1.5,
		GEGoodToBad:  0.3,
		GEBadToGood:  0.3,
		GoodLoss:     0.005,
		BadLoss:      0.18,
	}
	trace, err := spec.Generate(17)
	if err != nil {
		log.Fatal(err)
	}

	stream := kafkarel.Features{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		Semantics:      kafkarel.AtMostOnce,
		BatchSize:      1,
		PollInterval:   0,
		MessageTimeout: 1500 * time.Millisecond,
	}
	e := kafkarel.Experiment{
		Features:   stream,
		Messages:   10000,
		Seed:       17,
		Trace:      trace,
		MaxSimTime: spec.Duration,
	}

	// Static baseline: the default configuration rides out the bursts.
	static, err := kafkarel.RunExperiment(e)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static default:  P_l=%.3f P_d=%.4f\n", static.Pl, static.Pd)

	// Train the prediction model on a sweep of the configuration space
	// (the same model the offline scheme would use).
	fmt.Println("training the prediction model (configuration-space sweep)...")
	var grid []kafkarel.Features
	for _, sem := range []int{kafkarel.AtMostOnce, kafkarel.AtLeastOnce} {
		for _, b := range []int{1, 2, 5} {
			for _, delta := range []time.Duration{0, 30 * time.Millisecond, 90 * time.Millisecond} {
				for _, cond := range [][2]float64{{10, 0}, {100, 0.08}, {150, 0.18}} {
					v := stream
					v.Semantics = sem
					v.BatchSize = b
					v.PollInterval = delta
					v.DelayMs = cond[0]
					v.LossRate = cond[1]
					grid = append(grid, v)
				}
			}
		}
	}
	ds, err := kafkarel.CollectDataset(grid, kafkarel.SweepOptions{Messages: 1200, Seed: 18})
	if err != nil {
		log.Fatal(err)
	}
	pred, metrics, err := kafkarel.TrainPredictor(ds, 18)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("held-out MAE = %.4f\n", metrics.MAE)

	perf, err := kafkarel.NewPerfModel(kafkarel.Calibration{})
	if err != nil {
		log.Fatal(err)
	}
	eval, err := kafkarel.NewEvaluator(pred, perf, kafkarel.Weights{0.1, 0.1, 0.7, 0.1})
	if err != nil {
		log.Fatal(err)
	}
	searcher, err := kafkarel.NewSearcher(eval, grid)
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := kafkarel.NewOnlineController(searcher, stream)
	if err != nil {
		log.Fatal(err)
	}
	ctrl.MinHold = 20 * time.Second

	// Same experiment, same network — but now the controller watches the
	// socket and retunes every 10 simulated seconds.
	online, err := kafkarel.RunOnlineExperiment(e, 10*time.Second, ctrl.Control)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online control:  P_l=%.3f P_d=%.4f  (%d reconfigurations)\n",
		online.Pl, online.Pd, ctrl.Changes())
	final := ctrl.Current()
	fmt.Printf("final config: semantics=%d B=%d δ=%v T_o=%v\n",
		final.Semantics, final.BatchSize, final.PollInterval, final.MessageTimeout)
	if online.Pl < static.Pl {
		fmt.Printf("\nwithout any forecast, online tuning removed %.0f%% of the loss.\n",
			100*(1-online.Pl/static.Pl))
	}
}
