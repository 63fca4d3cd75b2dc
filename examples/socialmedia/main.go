// Socialmedia reproduces the Table II "messages from social media"
// scenario: text messages that must be delivered quickly with the lowest
// loss rate (weights ω = 0.4, 0.3, 0.2, 0.1), running over the paper's
// Fig. 9 network (Pareto-distributed delay, Gilbert-Elliot burst loss).
// It compares the static default Kafka configuration with the offline
// dynamic-configuration schedule produced by the prediction model.
//
// Run with: go run ./examples/socialmedia
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"kafkarel"
)

func main() {
	log.SetFlags(0)
	profile := kafkarel.SocialMedia
	fmt.Printf("stream: %s (M≈%dB, S=%v, ω_l:ω_d=%.3g:%.3g)\n",
		profile.Name, profile.MeanSize, profile.Timeliness, profile.Weights[0], profile.Weights[1])

	// A shortened Fig. 9 network so the example finishes quickly.
	spec := kafkarel.TraceSpec{
		Duration:     4 * time.Minute,
		Interval:     10 * time.Second,
		DelayScaleMs: 20,
		DelayShape:   1.5,
		GEGoodToBad:  0.22,
		GEBadToGood:  0.3,
		GoodLoss:     0.005,
		BadLoss:      0.17,
	}

	outcomes, err := kafkarel.EvaluateDynamicConfiguration(
		[]kafkarel.StreamProfile{profile},
		kafkarel.DynConfOptions{
			Messages:      8000,
			Seed:          7,
			TraceSpec:     spec,
			Interval:      30 * time.Second,
			TrainMessages: 800,
			Progress:      func(s string) { fmt.Fprintln(os.Stderr, "  ", s) },
		})
	if err != nil {
		log.Fatal(err)
	}
	o := outcomes[0]
	fmt.Println("\n            R_l       R_d")
	fmt.Printf("default    %6.2f%%  %7.3f%%\n", 100*o.DefaultRl, 100*o.DefaultRd)
	fmt.Printf("dynamic    %6.2f%%  %7.3f%%   (%d reconfigurations)\n",
		100*o.DynamicRl, 100*o.DynamicRd, o.Reconfigurations)

	if o.DynamicRl < o.DefaultRl {
		fmt.Printf("\ndynamic configuration cut the loss rate by %.1f%% relative — the\n",
			100*(1-o.DynamicRl/o.DefaultRl))
		fmt.Println("paper's Table II observes the same effect (55.76% → 17.58%),")
		fmt.Println("sometimes at the price of a slightly higher duplicate rate.")
	} else {
		fmt.Println("\ndynamic configuration did not beat the default on this trace;")
		fmt.Println("re-run with another -seed (bursty traces vary).")
	}
}
