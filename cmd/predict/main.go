// Command predict loads a trained model and predicts the reliability
// metrics P̂_l and P̂_d — plus the weighted KPI γ = ω_l·(1 − P̂_l) +
// ω_d·(1 − P̂_d) — for one feature vector given on the command line.
//
// Usage:
//
//	predict -model model.json -size 200 -loss 0.19 -delay 100 \
//	        -semantics at-least-once -batch 2 -poll 0ms -timeout 1500ms
//
// The model file must be one cmd/train wrote in the current format
// (version 3). A file from an earlier version is refused with
// "unsupported version": refit it with cmd/train on the same dataset.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kafkarel/internal/core"
	"kafkarel/internal/features"
	"kafkarel/internal/kpi"
	"kafkarel/internal/producer"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "predict:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	model := fs.String("model", "", "trained model JSON (from cmd/train)")
	size := fs.Int("size", 200, "message size M in bytes")
	timeliness := fs.Duration("timeliness", 5*time.Second, "message validity S")
	delay := fs.Float64("delay", 0, "network delay D in ms")
	loss := fs.Float64("loss", 0, "packet loss rate L in [0,1]")
	semantics := fs.String("semantics", "at-least-once", "at-most-once, at-least-once or exactly-once")
	batch := fs.Int("batch", 1, "batch size B")
	poll := fs.Duration("poll", 0, "polling interval δ")
	timeout := fs.Duration("timeout", 1500*time.Millisecond, "message timeout T_o")
	wl := fs.Float64("wl", 0.75, "KPI weight ω_l (1-Pl)")
	wd := fs.Float64("wd", 0.25, "KPI weight ω_d (1-Pd)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" {
		return fmt.Errorf("missing -model")
	}
	sem, err := producer.ParseSemantics(*semantics)
	if err != nil {
		return err
	}
	v := features.Vector{
		MessageSize:    *size,
		Timeliness:     *timeliness,
		DelayMs:        *delay,
		LossRate:       *loss,
		Semantics:      int(sem),
		BatchSize:      *batch,
		PollInterval:   *poll,
		MessageTimeout: *timeout,
	}

	f, err := os.Open(*model)
	if err != nil {
		return err
	}
	pred, err := core.Load(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	rel, err := pred.Predict(v)
	if err != nil {
		return err
	}
	gamma, err := kpi.Gamma(rel.Pl, rel.Pd, kpi.Weights{*wl, *wd})
	if err != nil {
		return err
	}
	fmt.Printf("P_l (message loss):        %.4f\n", rel.Pl)
	fmt.Printf("P_d (message duplication): %.4f\n", rel.Pd)
	fmt.Printf("gamma (weighted KPI):      %.4f\n", gamma)
	return nil
}
