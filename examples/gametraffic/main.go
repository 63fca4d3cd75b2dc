// Gametraffic reproduces the Table II "game traffic messages" scenario:
// tiny messages (<100 B, mouse/keyboard signals) with hard real-time
// requirements — losing OR delaying them ruins the player's experience.
// The paper's remedy (Sec. IV-C) is scaling: slow each producer's poll
// interval and add producers so the aggregate rate is unchanged while
// every producer's queue stays bounded. The example runs the same
// stream as a fleet of 1, 2, 4 and 8 producers and measures loss and
// latency.
//
// Run with: go run ./examples/gametraffic
package main

import (
	"fmt"
	"log"
	"time"

	"kafkarel"
)

func main() {
	log.SetFlags(0)
	profile := kafkarel.GameTraffic
	fmt.Printf("stream: %s (M≈%dB, S=%v, ω=%v)\n\n",
		profile.Name, profile.MeanSize, profile.Timeliness, profile.Weights)

	// The game emits events at about what one producer can take in at
	// full load for 80 B messages (~224 msg/s), so a lone producer polls
	// back to back and falls behind on every send-path stall.
	const eventsPerSec = 224
	v := kafkarel.Features{
		MessageSize:    profile.MeanSize,
		Timeliness:     profile.Timeliness,
		DelayMs:        15,
		Semantics:      kafkarel.AtMostOnce, // real-time: no time for retries
		BatchSize:      1,
		MessageTimeout: profile.Timeliness, // stale game input is useless
	}

	fmt.Println("fleet   P_l      mean T_p")
	var singlePl float64
	for _, producers := range []int{1, 2, 4, 8} {
		// One producer per topic, so each producer is an independent
		// simulation as in the paper's scaled testbed; UsersPerSec sets
		// every producer's arrival period to producers/eventsPerSec.
		res, err := kafkarel.RunFleet(kafkarel.Fleet{
			Features:    v,
			Producers:   producers,
			Topics:      producers,
			Partitions:  1,
			Messages:    12000,
			Seed:        21,
			UsersPerSec: eventsPerSec,
		})
		if err != nil {
			log.Fatal(err)
		}
		if producers == 1 {
			singlePl = res.Pl
		}
		fmt.Printf("%4d   %6.3f   %7.1f ms\n", producers, res.Pl, res.Latency.Mean())
	}

	fmt.Println("\nthe scaling rule N_p/δ = N_p'/(δ+Δδ) keeps the aggregate arrival")
	fmt.Printf("rate fixed; a single producer lost %.1f%% of the game events while\n",
		100*singlePl)
	fmt.Println("the scaled fleet keeps each producer's accumulator short enough")
	fmt.Println("that events go out before their validity window S expires.")

	// Exactly-once as the belt-and-braces option: the idempotent producer
	// retries aggressively without ever duplicating an input event.
	v.Semantics = kafkarel.ExactlyOnce
	v.LossRate = 0.12
	v.PollInterval = 25 * time.Millisecond
	v.MessageTimeout = 2 * profile.Timeliness
	res, err := kafkarel.RunExperiment(kafkarel.Experiment{Features: v, Messages: 6000, Seed: 22})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexactly-once under 12%% burst loss: P_l=%.3f P_d=%.4f — duplicates\n", res.Pl, res.Pd)
	fmt.Println("are suppressed by broker-side sequence de-duplication (the paper's")
	fmt.Println("Sec. II note that exactly-once needs extra resources: here it costs")
	fmt.Println("acks=all round trips to the full replica set).")
}
