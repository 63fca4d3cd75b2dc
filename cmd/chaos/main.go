// Command chaos runs randomised fault-injection campaigns against the
// simulated Kafka stack and verifies delivery invariants on every
// trial. It writes each campaign's JSON scorecard (one row per trial:
// seeds, faults, reliability metrics, classified anomalies, violations),
// one document per mode in mode order, and exits non-zero if any trial
// violated an invariant.
//
// Usage:
//
//	chaos -trials 100 -seed 42 -out scorecard.json
//	chaos -mode at-least-once -trials 50
//	chaos -trials 60 -e2e                # consumer group + end-to-end checker per trial
//	chaos -trials 60 -txn                # transactional pipeline + exactly-once checker per trial
//	chaos -trials 60 -coop               # cooperative-rebalance churn campaign (eager control per trial)
//	chaos -txn -isolation read_uncommitted   # aborted residue classified, not flagged
//	chaos -mode exactly-once -plan-seed 123 -workload-seed 456   # replay one trial
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kafkarel/internal/chaos/campaign"
)

func main() {
	var (
		modes        = flag.String("mode", "exactly-once,at-least-once", "comma-separated campaign modes (exactly-once, at-least-once, txn, coop)")
		trials       = flag.Int("trials", 50, "trials per campaign")
		seed         = flag.Uint64("seed", 1, "campaign seed")
		messages     = flag.Int("messages", 300, "messages per trial")
		maxFaults    = flag.Int("max-faults", 5, "max faults per generated plan")
		horizon      = flag.Duration("horizon", 2*time.Second, "fault-injection window (sim time)")
		flushEvery   = flag.Duration("flush-interval", 50*time.Millisecond, "broker fsync cadence")
		e2e          = flag.Bool("e2e", false, "run a consumer group through each trial and verify end-to-end delivery (group members crash too)")
		txn          = flag.Bool("txn", false, "run the transactional pipeline campaign only (shorthand for -mode txn)")
		coop         = flag.Bool("coop", false, "run the cooperative-rebalance churn campaign only (shorthand for -mode coop)")
		isolation    = flag.String("isolation", "", "txn-mode consumer isolation: read_committed (default) or read_uncommitted")
		members      = flag.Int("consumers", 2, "consumer-group size per trial under -e2e (default 2) or per group under -coop (default 6)")
		groups       = flag.Int("groups", 0, "coop-mode consumer-group fan-out (default 2)")
		workers      = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		out          = flag.String("out", "", "write scorecard JSON to this file (default stdout)")
		quiet        = flag.Bool("q", false, "suppress progress on stderr")
		planSeed     = flag.Uint64("plan-seed", 0, "replay a single trial: its plan seed")
		workloadSeed = flag.Uint64("workload-seed", 0, "replay a single trial: its workload seed")
	)
	flag.Parse()

	cfg := campaign.Config{
		Trials:        *trials,
		Seed:          *seed,
		Messages:      *messages,
		MaxFaults:     *maxFaults,
		Horizon:       *horizon,
		FlushInterval: *flushEvery,
		E2E:           *e2e,
		Isolation:     *isolation,
		Workers:       *workers,
	}
	if *e2e {
		cfg.ConsumerMembers = *members
	}
	if *txn {
		*modes = campaign.ModeTxn
	}
	if *coop {
		*modes = campaign.ModeCoop
		cfg.Groups = *groups
		if flagSet("consumers") {
			cfg.ConsumerMembers = *members
		}
	}

	if *planSeed != 0 || *workloadSeed != 0 {
		if err := replay(cfg, *modes, *planSeed, *workloadSeed); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(2)
		}
		return
	}

	var cards []campaign.Scorecard
	violations := 0
	for _, mode := range strings.Split(*modes, ",") {
		cfg.Mode = strings.TrimSpace(mode)
		if !*quiet {
			cfg.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d trials", cfg.Mode, done, total)
			}
		}
		sc, err := campaign.Run(context.Background(), cfg)
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(2)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s: %d trials, %d violations, %d flagged (%d with acked loss, %d with offset regressions)\n",
				sc.Mode, sc.Trials, sc.Failed, sc.Flagged, sc.AckedLost, sc.OffsetRegressed)
			if sc.Mode == campaign.ModeCoop {
				fmt.Fprintf(os.Stderr, "coop vs eager: redelivered %d vs %d, paused %v vs %v\n",
					sc.CoopRedelivered, sc.EagerRedelivered,
					time.Duration(sc.CoopPausedNs), time.Duration(sc.EagerPausedNs))
			}
		}
		violations += sc.Failed
		cards = append(cards, sc)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	for _, sc := range cards {
		if err := sc.WriteJSON(w); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(2)
		}
	}
	if violations > 0 {
		os.Exit(1)
	}
}

// flagSet reports whether a flag was explicitly passed on the command
// line (as opposed to resting at its default).
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// replay re-runs one trial from its scorecard seeds and prints the row.
func replay(cfg campaign.Config, modes string, planSeed, workloadSeed uint64) error {
	cfg.Mode = strings.TrimSpace(strings.Split(modes, ",")[0])
	row, err := campaign.RunTrial(cfg, planSeed, workloadSeed)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(row); err != nil {
		return err
	}
	if !row.Pass {
		os.Exit(1)
	}
	return nil
}
