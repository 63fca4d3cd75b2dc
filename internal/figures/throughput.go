package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/testbed"
)

// The throughput family is an extension beyond the paper's figures: the
// paper measures reliability (P_l, P_d) per configuration and leaves
// throughput inside the KPI's predicted φ; these two series measure it
// directly on the testbed — once over the batch size on a single
// producer, once over the partition count on a fleet — so the
// batching/partitioning trade-off has an empirical curve to check the
// performance model against. EXPERIMENTS.md records the measured
// series.

// ThroughputBatchPoint is one marker of the throughput-vs-batch-size
// series: delivered messages per simulated second for one batch size B
// under mild loss, at-least-once, full load.
type ThroughputBatchPoint struct {
	BatchSize            int
	Throughput           float64
	BandwidthUtilization float64
	Pl                   float64
}

// ThroughputBatches is the swept B axis.
var ThroughputBatches = []int{1, 2, 3, 5, 8, 10}

// ThroughputBatchVector returns the experiment definition for one
// throughput-vs-batch point.
func ThroughputBatchVector(batch int) features.Vector {
	return features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        10,
		LossRate:       0.02,
		Semantics:      features.SemanticsAtLeastOnce,
		BatchSize:      batch,
		PollInterval:   0,
		MessageTimeout: 1500 * time.Millisecond,
	}
}

// ThroughputVsBatch measures delivered throughput over the batch size.
func ThroughputVsBatch(o Options) ([]ThroughputBatchPoint, error) {
	vs := make([]features.Vector, len(ThroughputBatches))
	for i, b := range ThroughputBatches {
		vs[i] = ThroughputBatchVector(b)
	}
	results, err := runBatch(o, 800, vs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]ThroughputBatchPoint, len(vs))
	for i, v := range vs {
		out[i] = ThroughputBatchPoint{
			BatchSize:            v.BatchSize,
			Throughput:           results[i].Throughput,
			BandwidthUtilization: results[i].BandwidthUtilization,
			Pl:                   results[i].Pl,
		}
	}
	return out, nil
}

// ThroughputPartitionPoint is one marker of the
// throughput-vs-partition-count series: aggregate fleet throughput for
// one per-topic partition count at a fixed fleet shape.
type ThroughputPartitionPoint struct {
	Partitions int
	Producers  int
	Topics     int
	Throughput float64
	Pl         float64
}

// ThroughputPartitionCounts is the swept per-topic partition axis; the
// fleet shape (producers × topics) is fixed so partitioning is the only
// variable.
var ThroughputPartitionCounts = []int{1, 2, 4, 8, 16, 32}

// Fixed fleet shape of the partition series.
const (
	tputFleetProducers = 32
	tputFleetTopics    = 4
)

// ThroughputPartitionVector returns the per-producer feature vector of
// the partition series (batched at-least-once under mild loss; the
// per-producer load is throttled so the shards saturate partitions, not
// the source).
func ThroughputPartitionVector() features.Vector {
	return features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        10,
		LossRate:       0.02,
		Semantics:      features.SemanticsAtLeastOnce,
		BatchSize:      2,
		PollInterval:   0,
		MessageTimeout: 1500 * time.Millisecond,
	}
}

// ThroughputVsPartitions measures aggregate fleet throughput over the
// per-topic partition count: each point is one fleet run (32 producers
// over 4 topics, keyed routing, consumer-group drain) whose shards fan
// out over the worker pool. Like every figure, the series is identical
// for any Workers value.
func ThroughputVsPartitions(o Options) ([]ThroughputPartitionPoint, error) {
	seedAt := exprun.LinearSeeds(o.Seed, seedStride)
	out := make([]ThroughputPartitionPoint, len(ThroughputPartitionCounts))
	for i, parts := range ThroughputPartitionCounts {
		f := testbed.Fleet{
			Features:   ThroughputPartitionVector(),
			Producers:  tputFleetProducers,
			Topics:     tputFleetTopics,
			Partitions: parts,
			Messages:   o.messages(),
			Seed:       seedAt(900 + i),
			MaxSimTime: maxSimTime(o.messages()),
		}
		res, err := testbed.RunFleetContext(o.ctx(), f, o.Workers)
		if err != nil {
			return nil, fmt.Errorf("figures: tput-partitions P=%d: %w", parts, err)
		}
		out[i] = ThroughputPartitionPoint{
			Partitions: parts,
			Producers:  tputFleetProducers,
			Topics:     tputFleetTopics,
			Throughput: res.Throughput,
			Pl:         res.Pl,
		}
		if o.Progress != nil {
			o.Progress(i+1, len(ThroughputPartitionCounts))
		}
	}
	return out, nil
}

// csvG renders a float in the canonical shortest form, so CSV artefacts
// are byte-comparable across runs and worker counts.
func csvG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteThroughputBatchCSV renders the batch series as a CSV artefact.
func WriteThroughputBatchCSV(w io.Writer, points []ThroughputBatchPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"batch_size", "throughput_msg_s", "bandwidth_utilization", "pl"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{strconv.Itoa(p.BatchSize), csvG(p.Throughput), csvG(p.BandwidthUtilization), csvG(p.Pl)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteThroughputPartitionsCSV renders the partition series as a CSV
// artefact.
func WriteThroughputPartitionsCSV(w io.Writer, points []ThroughputPartitionPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"partitions", "producers", "topics", "throughput_msg_s", "pl"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			strconv.Itoa(p.Partitions), strconv.Itoa(p.Producers), strconv.Itoa(p.Topics),
			csvG(p.Throughput), csvG(p.Pl),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
