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
// FigureOptions, SweepOptions and DynConfOptions; -parallel on the
// CLIs).
//
// The quickstart example under examples/quickstart walks through all
// four layers in ~80 lines.
package kafkarel

import (
	"context"
	"io"
	"time"

	"kafkarel/internal/chaos"
	"kafkarel/internal/core"
	"kafkarel/internal/dynconf"
	"kafkarel/internal/features"
	"kafkarel/internal/figures"
	"kafkarel/internal/kpi"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
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
	// Dataset is a set of training samples with CSV persistence.
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
	// ConfigChange schedules a mid-run reconfiguration.
	ConfigChange = testbed.ConfigChange
	// Fleet describes a fleet-scale run: N producers over T topics of P
	// partitions each, keyed routing, consumer groups draining every
	// topic, aggregate load in users/sec — see RunFleetContext.
	Fleet = testbed.Fleet
	// FleetResult aggregates a fleet run; its Scorecard is byte-identical
	// for every worker count.
	FleetResult = testbed.FleetResult
)

// Observability (the internal/obs subsystem). A run's metrics come back
// on Result.Metrics; the event timeline is captured by attaching a
// Tracer to Experiment.Tracer.
type (
	// Tracer records the structured per-run event stream (record
	// lifecycle, transport, broker events) into a ring buffer and an
	// optional JSONL sink.
	Tracer = obs.Tracer
	// TraceEvent is one structured trace record stamped with virtual
	// time.
	TraceEvent = obs.Event
	// Timeline is the sim-time sampler: at a fixed virtual interval it
	// records one fixed-schema row of network, transport, producer and
	// broker state, interleaved with discrete annotations (config
	// switches, online decisions, broker failures). Attach it via
	// Experiment.Timeline; it comes back on Result.Timeline.
	Timeline = obs.Timeline
)

// Chaos engine (the internal/chaos subsystem): deterministic sim-time
// fault plans, randomised campaign generation, and the delivery-
// invariant checker. Attach a plan via Experiment.FaultPlan; run whole
// campaigns with the cmd/chaos CLI (internal/chaos/campaign).
type (
	// Fault is one scheduled fault (broker crash, unclean restart,
	// partition, loss burst, delay spike, connection reset, slowdown).
	Fault = chaos.Fault
	// FaultPlan is a validated set of faults on the sim-time axis.
	FaultPlan = chaos.Plan
	// FaultKind discriminates Fault entries.
	FaultKind = chaos.Kind
	// TrialVerdict separates invariant violations from classified,
	// expected-for-the-configuration anomalies.
	TrialVerdict = chaos.Verdict
)

// Fault kinds for FaultPlan entries.
const (
	FaultBrokerCrash     = chaos.BrokerCrash
	FaultBrokerRecover   = chaos.BrokerRecover
	FaultUncleanRestart  = chaos.UncleanRestart
	FaultPartition       = chaos.Partition
	FaultLossBurst       = chaos.LossBurst
	FaultDelaySpike      = chaos.DelaySpike
	FaultConnReset       = chaos.ConnReset
	FaultBrokerSlow      = chaos.BrokerSlow
	FaultConsumerCrash   = chaos.ConsumerCrash
	FaultProcessorCrash  = chaos.ProcessorCrash
	FaultProcessorZombie = chaos.ProcessorZombie
)

// Transactional pipeline (the exactly-once consume-process-produce
// testbed): a broker-side transaction coordinator drives two-phase
// commits over input offsets and output records, processors are fenced
// by producer-epoch bumps, and the read_committed consumer sees only
// decided transactions. Run single trials with RunTxnPipeline, whole
// campaigns with cmd/chaos -txn.
type (
	// TxnExperiment configures one transactional pipeline trial.
	TxnExperiment = testbed.TxnExperiment
	// TxnResult is the trial's full evidence: attempts, committed
	// offsets, both isolation views, incarnation counts, txn stats.
	TxnResult = testbed.TxnResult
	// TxnEvidence is the evidence bundle VerifyTxnTrial consumes.
	TxnEvidence = chaos.TxnInput
	// TxnFaultGenConfig parameterises random transactional-plan
	// generation (broker outages, processor crashes, zombie races).
	TxnFaultGenConfig = chaos.TxnGenConfig
)

// RunTxnPipeline runs one transactional consume-process-produce trial:
// a filler produces the input topic, transactional processors move
// records to the output topic with offsets committed inside the same
// transaction, and the result carries the read_committed and
// read_uncommitted views plus every attempt's outcome.
func RunTxnPipeline(ctx context.Context, e TxnExperiment) (TxnResult, error) {
	return testbed.RunTxnCtx(ctx, e)
}

// VerifyTxnTrial checks a finished transactional trial against the
// exactly-once invariants (no phantom commits, zombie fencing, commit
// atomicity, exactly-once against the committed watermark, isolation
// residue classification, completion).
func VerifyTxnTrial(in TxnEvidence) TrialVerdict { return chaos.VerifyTxn(in) }

// GenerateTxnFaultPlan samples a random fault plan for a transactional
// trial; the same (seed, config) always yields the same plan.
func GenerateTxnFaultPlan(seed uint64, cfg TxnFaultGenConfig) FaultPlan {
	return chaos.GenerateTxnPlan(seed, cfg)
}

// NewTracer returns an event tracer with the given ring capacity
// (<= 0 takes the default). Attach it via Experiment.Tracer.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewTimeline returns a sim-time timeline sampling every interval
// (<= 0 takes the 10 s default). Attach it via Experiment.Timeline; a
// scaled run uses it as a template and returns one entity-tagged
// timeline per producer on Result.Timelines.
func NewTimeline(interval time.Duration) *Timeline { return obs.NewTimeline(interval) }

// ReadTraceJSONL parses a JSONL trace written by a tracer sink.
func ReadTraceJSONL(r io.Reader) ([]TraceEvent, error) { return obs.ReadJSONL(r) }

// DuplicateChains extracts from a trace the per-batch event chains of
// Case-5 duplicates (send → spurious timeout → retry → duplicate
// append), the Fig. 8 mechanism.
func DuplicateChains(events []TraceEvent) [][]TraceEvent { return obs.DuplicateChains(events) }

// IsCompleteDuplicateChain reports whether a chain shows the full
// Fig. 8 causal sequence.
func IsCompleteDuplicateChain(chain []TraceEvent) bool { return obs.IsCompleteDuplicateChain(chain) }

// RunExperiment measures P_l and P_d (and throughput, latency, staleness)
// for one feature vector on the simulated testbed.
func RunExperiment(e Experiment) (Result, error) { return testbed.Run(e) }

// RunScaledExperiment splits the experiment across n producers following
// the paper's scaling rule N_p/δ = N_p'/(δ+Δδ) (Sec. IV-C). The
// per-producer simulations fan out over the experiment worker pool.
func RunScaledExperiment(e Experiment, producers int) (Result, error) {
	return testbed.RunScaled(e, producers)
}

// RunFleetContext executes a fleet-scale run under ctx with an explicit
// worker bound (<= 0: GOMAXPROCS): every topic is an independent
// simulation (fanned out over the worker pool) whose producers share
// the topic under keyed routing; results merge in topic order, so
// FleetResult.Scorecard and the merged timelines are byte-identical at
// any worker count.
func RunFleetContext(ctx context.Context, f Fleet, workers int) (FleetResult, error) {
	return testbed.RunFleetContext(ctx, f, workers)
}

// DefaultCalibration returns the host cost constants used throughout the
// reproduction (see DESIGN.md §5).
func DefaultCalibration() Calibration { return testbed.DefaultCalibration() }

// Sweep / dataset collection.
type (
	// SweepOptions tunes a training-data collection run.
	SweepOptions = sweep.Options
)

// NormalGrid and AbnormalGrid enumerate the Fig. 3 training-data
// collection design's two feature subspaces.
func NormalGrid() []Features   { return sweep.NormalGrid() }
func AbnormalGrid() []Features { return sweep.AbnormalGrid() }

// CollectDataset runs one testbed experiment per grid point. Grid
// points fan out over the experiment worker pool (SweepOptions.Workers);
// the dataset is identical for every worker count.
func CollectDataset(grid []Features, opts SweepOptions) (Dataset, error) {
	return sweep.Collect(grid, opts)
}

// ReadDatasetCSV parses a dataset written by Dataset.WriteCSV.
func ReadDatasetCSV(r io.Reader) (Dataset, error) { return features.ReadCSV(r) }

// Prediction framework.
type (
	// Predictor is the trained Eq. 1 model {P̂_l, P̂_d} = f(features).
	Predictor = core.Predictor
	// TrainConfig controls predictor training.
	TrainConfig = core.TrainConfig
	// TrainMetrics reports held-out evaluation (the paper: MAE < 0.02).
	TrainMetrics = core.Metrics
)

// TrainPredictor fits one ANN per delivery semantics in the dataset.
func TrainPredictor(ds Dataset, cfg TrainConfig) (*Predictor, TrainMetrics, error) {
	return core.Train(ds, cfg)
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

// DefaultWeights returns the paper's empirical (0.3, 0.3, 0.3, 0.1).
func DefaultWeights() Weights { return kpi.DefaultWeights() }

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
	// NetworkTrace is a piecewise network-condition schedule (Fig. 9).
	NetworkTrace = netem.Trace
	// TraceSpec parameterises synthetic Fig. 9 traces (Pareto delay,
	// Gilbert-Elliot loss).
	TraceSpec = netem.TraceSpec
	// TracePoint is one (time, delay, loss) sample of a trace.
	TracePoint = netem.Point
)

// Figure regeneration (see EXPERIMENTS.md for paper-vs-measured).
type (
	FigureOptions = figures.Options
	Fig4Point     = figures.Fig4Point
	Fig5Point     = figures.Fig5Point
	Fig6Point     = figures.Fig6Point
	Fig7Point     = figures.Fig7Point
	Fig8Point     = figures.Fig8Point
	Table1Result  = figures.Table1Result
)

// Figure generators, one per evaluation artefact in the paper.
func Fig4(o FigureOptions) ([]Fig4Point, error)    { return figures.Fig4(o) }
func Fig5(o FigureOptions) ([]Fig5Point, error)    { return figures.Fig5(o) }
func Fig6(o FigureOptions) ([]Fig6Point, error)    { return figures.Fig6(o) }
func Fig7(o FigureOptions) ([]Fig7Point, error)    { return figures.Fig7(o) }
func Fig8(o FigureOptions) ([]Fig8Point, error)    { return figures.Fig8(o) }
func Fig9(seed uint64) ([]TracePoint, error)       { return figures.Fig9(seed) }
func Table1(o FigureOptions) (Table1Result, error) { return figures.Table1(o) }
