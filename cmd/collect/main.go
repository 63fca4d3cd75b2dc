// Command collect runs the paper's Fig. 3 training-data collection
// sweep (normal and abnormal cases) on the simulated testbed and writes
// the labelled dataset as CSV. The sweep is figures.Fig3's, so
// `collect -n N -seed s` writes exactly the samples `repro -n N -seed s
// ann-accuracy` trains on, and `train -seed s` on that CSV reproduces its
// metrics. Experiments fan out over a worker pool; the CSV is written in
// grid order once the whole sweep has run. The dataset is 480 rows, so
// holding it costs nothing, and an interrupted sweep writes no file: the
// grid lists the normal oval first, so any prefix of it lacks the
// abnormal (fault-injected) cases and would bias a model trained on it.
//
// Usage:
//
//	collect [-n messages] [-seed n] [-parallel workers] [-progress every] -o dataset.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/figures"
	"kafkarel/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "collect:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	messages := fs.Int("n", 20000, "figure messages per experiment point, as repro's -n (each sweep experiment runs a quarter)")
	seed := fs.Uint64("seed", 1, "random seed, as repro's -seed")
	parallel := fs.Int("parallel", 0, "experiment workers (0 = GOMAXPROCS); results are identical for any value")
	progress := fs.Int("progress", 25, "print a progress line every N experiments (0 = quiet)")
	out := fs.String("o", "", "output CSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *messages <= 0 {
		return fmt.Errorf("-n %d: want a positive message count", *messages)
	}
	grid, opts := figures.Fig3(figures.Options{Messages: *messages, Seed: *seed, Workers: *parallel})
	if *progress > 0 {
		opts.Progress = exprun.NewReporter(os.Stderr, "collect", *progress).Progress
	}
	fmt.Fprintf(os.Stderr, "collecting %d experiments x %d messages\n", len(grid), opts.Messages)

	ds, err := sweep.CollectContext(ctx, grid, opts)
	if err != nil {
		return err
	}
	if *out == "" {
		return features.WriteCSV(os.Stdout, ds)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	werr := features.WriteCSV(f, ds)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
