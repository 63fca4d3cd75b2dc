// Command train fits the paper's ANN prediction model (Eq. 1) on a
// dataset collected by cmd/collect and writes the trained predictor as
// JSON, reporting held-out accuracy (the paper's bar: MAE < 0.02).
//
// Usage:
//
//	train [-arch paper|compact] [-epochs n] [-seed n] -data dataset.csv -o model.json
package main

import (
	"flag"
	"fmt"
	"os"

	"kafkarel/internal/core"
	"kafkarel/internal/features"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	data := fs.String("data", "", "training CSV (from cmd/collect)")
	out := fs.String("o", "model.json", "output model path")
	arch := fs.String("arch", "compact", "network architecture: paper (200/200/200/64, Sec. III-G) or compact")
	epochs := fs.Int("epochs", 0, "override training epochs (0 = architecture default)")
	seed := fs.Uint64("seed", 1, "random seed")
	target := fs.Float64("target-mae", 0.01, "early-stop training MAE (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("missing -data")
	}
	f, err := os.Open(*data)
	if err != nil {
		return err
	}
	ds, err := features.ReadCSV(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	cfg := core.TrainConfig{Seed: *seed, TargetMAE: *target, EpochOverride: *epochs}
	switch *arch {
	case "paper":
		cfg.Architecture = core.ArchitecturePaper
	case "compact":
		cfg.Architecture = core.ArchitectureCompact
	default:
		return fmt.Errorf("unknown architecture %q", *arch)
	}

	fmt.Fprintf(os.Stderr, "training on %d samples (%s architecture)\n", len(ds), *arch)
	pred, metrics, err := core.Train(ds, cfg)
	if err != nil {
		return err
	}
	// In ascending semantics order: core.Train accepts no other codes.
	for sem := features.SemanticsAtMostOnce; sem <= features.SemanticsExactlyOnce; sem++ {
		m, ok := metrics.PerSemantics[sem]
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr, "semantics %d: train=%d test=%d MAE=%.4f RMSE=%.4f epochs=%d\n",
			sem, m.TrainSamples, m.TestSamples, m.MAE, m.RMSE, m.Epochs)
	}
	fmt.Fprintf(os.Stderr, "pooled held-out MAE=%.4f RMSE=%.4f (paper bar: 0.02)\n", metrics.MAE, metrics.RMSE)

	of, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := pred.Save(of); err != nil {
		_ = of.Close()
		return err
	}
	if err := of.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "model written to %s\n", *out)
	return nil
}
