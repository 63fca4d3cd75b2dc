// Command train fits the paper's prediction model (Eq. 1) on a dataset
// collected by cmd/collect and writes the trained predictor as
// JSON, reporting accuracy on the 20 % it held out (the paper's bar:
// MAE < 0.02).
//
// Usage:
//
//	train [-seed n] -data dataset.csv -o model.json
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
	seed := fs.Uint64("seed", 1, "random seed")
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

	fmt.Fprintf(os.Stderr, "training on %d samples\n", len(ds))
	pred, metrics, err := core.Train(ds, *seed)
	if err != nil {
		return err
	}
	// In ascending semantics order: core.Train accepts no other codes.
	for sem := features.SemanticsAtMostOnce; sem <= features.SemanticsExactlyOnce; sem++ {
		m, ok := metrics.PerSemantics[sem]
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr, "semantics %d: train=%d test=%d MAE=%.4f RMSE=%.4f\n",
			sem, m.TrainSamples, m.TestSamples, m.MAE, m.RMSE)
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
