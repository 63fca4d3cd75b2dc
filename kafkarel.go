// Package kafkarel is the public API of the reproduction of
// "Learning to Reliably Deliver Streaming Data with Apache Kafka"
// (Wu, Shang, Wolter — DSN 2020).
//
// The library bundles four layers:
//
//   - A deterministic simulated Kafka testbed (brokers, producer model
//     with the paper's Fig. 2 message state machine, TCP-like transport,
//     NetEm-style fault injection) that measures the reliability metrics
//     P_l (probability of message loss) and P_d (probability of message
//     duplication) for a configuration — see RunExperiment.
//   - The prediction framework of the paper's Eq. 1: an ANN trained on
//     testbed sweeps that predicts {P̂_l, P̂_d} from the features
//     (M, S, D, L, semantics, B, δ, T_o) — see CollectDataset and
//     TrainPredictor.
//   - The weighted KPI γ of Eq. 2 combining reliability with predicted
//     performance — see NewEvaluator.
//   - The dynamic-configuration scheme of Sec. V: stepwise configuration
//     search against a forecast network trace — see NewSearcher and
//     EvaluateDynamicConfiguration.
//
// Every evaluation artefact is built from independent, seed-deterministic
// simulated experiments, which execute on a bounded worker pool (the
// internal exprun layer). Per-experiment seeds are derived from each
// experiment's position, never from scheduling order, so figures,
// datasets and Table II outcomes are byte-identical for any worker
// count — parallelism is purely a wall-clock lever (Workers fields on
// SweepOptions and DynConfOptions; -parallel on the CLIs).
//
// The package exports exactly what the programs under examples/ import
// (the reachability gate, reach_test.go, keeps it so); the CLIs under
// cmd/ use the internal packages directly. The quickstart example under
// examples/quickstart walks through all four layers in ~80 lines.
package kafkarel

import (
	"context"
	"time"

	"kafkarel/internal/core"
	"kafkarel/internal/dynconf"
	"kafkarel/internal/features"
	"kafkarel/internal/kpi"
	"kafkarel/internal/netem"
	"kafkarel/internal/perfmodel"
	"kafkarel/internal/sweep"
	"kafkarel/internal/testbed"
	"kafkarel/internal/workload"
)

// Feature-space types (the paper's Eq. 1 inputs and datasets).
type (
	// Features is the prediction feature vector: message size M,
	// timeliness S, network delay D, loss rate L, delivery semantics,
	// batch size B, polling interval δ and message timeout T_o.
	Features = features.Vector
	// Dataset is a set of training samples.
	Dataset = features.Dataset
)

// Delivery semantics codes for Features.Semantics.
const (
	AtMostOnce  = features.SemanticsAtMostOnce
	AtLeastOnce = features.SemanticsAtLeastOnce
	ExactlyOnce = features.SemanticsExactlyOnce
)

// Testbed types.
type (
	// Experiment is one simulated testbed run (Sec. III-E).
	Experiment = testbed.Experiment
	// Result carries the measured reliability and performance metrics.
	Result = testbed.Result
	// Calibration holds the producer-host cost constants.
	Calibration = testbed.Calibration
)

// RunExperiment measures P_l and P_d (and throughput, latency, staleness)
// for one feature vector on the simulated testbed.
func RunExperiment(e Experiment) (Result, error) { return testbed.Run(e) }

// Fleet is a multi-producer run: producers spread over topics, each
// topic an independent simulation. With UsersPerSec set it applies the
// paper's scaling rule N_p/δ = N_p'/(δ+Δδ) (Sec. IV-C): every producer
// polls slowly enough that the fleet offers that aggregate rate.
type Fleet = testbed.Fleet

// RunFleet runs a fleet; its topics fan out over the experiment worker
// pool and the result is identical for every worker count.
func RunFleet(f Fleet) (testbed.FleetResult, error) { return testbed.RunFleet(f) }

// Sweep / dataset collection.
type (
	// SweepOptions tunes a training-data collection run.
	SweepOptions = sweep.Options
)

// CollectDataset runs one testbed experiment per grid point. Grid
// points fan out over the experiment worker pool (SweepOptions.Workers);
// the dataset is identical for every worker count.
func CollectDataset(grid []Features, opts SweepOptions) (Dataset, error) {
	return sweep.CollectContext(context.Background(), grid, opts)
}

// Prediction framework.
type (
	// Predictor is the trained Eq. 1 model {P̂_l, P̂_d} = f(features).
	Predictor = core.Predictor
	// TrainMetrics reports held-out evaluation (the paper: MAE < 0.02).
	TrainMetrics = core.Metrics
)

// TrainPredictor fits one ANN per delivery semantics in the dataset,
// holding 20 % of each out for evaluation; seed fixes the split and the
// training.
func TrainPredictor(ds Dataset, seed uint64) (*Predictor, TrainMetrics, error) {
	return core.Train(ds, seed)
}

// KPI (Eq. 2).
type (
	// Weights are ω1..ω4 for φ, μ, (1-P_l), (1-P_d).
	Weights = kpi.Weights
	// Evaluator scores configurations with γ.
	Evaluator = kpi.Evaluator
	// PerfModel predicts φ and μ (the ref. [6] stand-in).
	PerfModel = perfmodel.Model
)

// NewPerfModel builds the performance predictor; a zero calibration
// takes the defaults.
func NewPerfModel(cal Calibration) (*PerfModel, error) { return perfmodel.New(cal) }

// NewEvaluator combines the reliability predictor and performance model
// into a γ scorer.
func NewEvaluator(p *Predictor, perf *PerfModel, w Weights) (*Evaluator, error) {
	return kpi.NewEvaluator(p, perf, w)
}

// Dynamic configuration (Sec. V).
type (
	// Searcher walks configuration space until γ meets a requirement.
	Searcher = dynconf.Searcher
	// StreamOutcome is one Table II row pair (default vs dynamic R_l/R_d).
	StreamOutcome = dynconf.StreamOutcome
	// DynConfOptions configures the Table II pipeline.
	DynConfOptions = dynconf.Options
	// StreamProfile describes an application stream (Table II).
	StreamProfile = workload.Profile
)

// NewSearcher builds a stepwise configuration searcher.
func NewSearcher(eval *Evaluator) (*Searcher, error) { return dynconf.NewSearcher(eval) }

// EvaluateDynamicConfiguration runs the full Table II pipeline.
func EvaluateDynamicConfiguration(profiles []StreamProfile, opts DynConfOptions) ([]StreamOutcome, error) {
	return dynconf.TableII(profiles, opts)
}

// Online dynamic configuration — the paper's declared future work,
// implemented as an extension: no forecast, the controller estimates the
// network from the producer's own transport statistics.
type (
	// OnlineController reconfigures from live transport probes.
	OnlineController = dynconf.OnlineController
	// NetworkProbe is one live network estimate.
	NetworkProbe = testbed.NetworkProbe
)

// NewOnlineController builds an online controller starting from the
// given configuration and pursuing the γ target.
func NewOnlineController(s *Searcher, start Features, target float64) (*OnlineController, error) {
	return dynconf.NewOnlineController(s, start, target)
}

// RunOnlineExperiment executes an experiment while a controller
// reconfigures the producer from live probes sampled every interval.
func RunOnlineExperiment(e Experiment, interval time.Duration, ctrl func(NetworkProbe) (Features, bool)) (Result, error) {
	return testbed.RunOnline(e, interval, ctrl)
}

// Stream profiles of Table II.
var (
	SocialMedia = workload.SocialMedia
	WebLogs     = workload.WebLogs
	GameTraffic = workload.GameTraffic
)

// Network emulation.
type (
	// TraceSpec parameterises synthetic Fig. 9 traces (Pareto delay,
	// Gilbert-Elliot loss).
	TraceSpec = netem.TraceSpec
)
