package kpi

import (
	"fmt"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/perfmodel"
	"kafkarel/internal/testbed"
)

// Measured computes the KPI components from a run's observability
// snapshot — no model, no reconciliation, just what the counters and
// spans recorded:
//
//   - φ: payload bytes the network delivered over the link capacity for
//     the run duration (same definition the performance model predicts).
//   - μ: delivered over offered records. Over a whole run the rate
//     denominators cancel, so min(1, delivered/offered) is exactly
//     min(1, service/arrival) measured at run granularity.
//   - P_l: records the producer resolved as lost over offered.
//   - P_d: duplicate log appends per replica copy over offered — the
//     broker-side count of records a dedup-free consumer would see
//     twice. Every replica counts its own append of a duplicate batch,
//     so the raw counter is divided by the replication-factor gauge to
//     get per-copy duplicates. (Reconciliation refines this into
//     Table I case 5; the measured KPI deliberately sticks to pure obs
//     counters.)
//
// A run that offered nothing scores μ=1, P_l=P_d=0.
func Measured(m testbed.MetricsSnapshot, duration time.Duration, cal testbed.Calibration, w Weights) (Breakdown, error) {
	if cal == (testbed.Calibration{}) {
		cal = testbed.DefaultCalibration()
	}
	if err := cal.Validate(); err != nil {
		return Breakdown{}, fmt.Errorf("kpi: %w", err)
	}
	phi := 0.0
	if sec := duration.Seconds(); sec > 0 {
		phi = float64(m.NetBytesDelivered) * 8 / (cal.Bandwidth * sec)
		if phi > 1 {
			phi = 1
		}
	}
	mu, pl, pd := 1.0, 0.0, 0.0
	if offered := float64(m.RecordsEnqueued); offered > 0 {
		mu = float64(m.RecordsDelivered) / offered
		if mu > 1 {
			mu = 1
		}
		pl = float64(m.RecordsLost) / offered
		if pl > 1 {
			pl = 1
		}
		rf := float64(m.ReplicationFactor)
		if rf < 1 {
			rf = 1
		}
		pd = float64(m.BrokerDupAppends) / rf / offered
		if pd > 1 {
			pd = 1
		}
	}
	g, err := Gamma(phi, mu, pl, pd, w)
	if err != nil {
		return Breakdown{}, err
	}
	return Breakdown{Gamma: g, Phi: phi, Mu: mu, Pl: pl, Pd: pd}, nil
}

// Predict computes the predicted breakdown from the performance model
// alone, with the untrained-predictor prior P_l = P_d = 0 (a perfect
// network is the model's baseline; a trained core.Predictor via
// Evaluator.Evaluate refines the reliability half). This is the
// predicted side reports use when no trained predictor is at hand.
func Predict(v features.Vector, cal testbed.Calibration, w Weights) (Breakdown, error) {
	perf, err := perfmodel.New(cal)
	if err != nil {
		return Breakdown{}, err
	}
	p, err := perf.Predict(v)
	if err != nil {
		return Breakdown{}, err
	}
	g, err := Gamma(p.Phi, p.Mu, 0, 0, w)
	if err != nil {
		return Breakdown{}, err
	}
	return Breakdown{Gamma: g, Phi: p.Phi, Mu: p.Mu}, nil
}

// CompareRun builds the predicted-vs-measured comparison for one run:
// Predict on the vector, Measured on the snapshot, same weights.
func CompareRun(v features.Vector, m testbed.MetricsSnapshot, duration time.Duration, cal testbed.Calibration, w Weights) (testbed.GammaComparison, error) {
	pred, err := Predict(v, cal, w)
	if err != nil {
		return testbed.GammaComparison{}, err
	}
	meas, err := Measured(m, duration, cal, w)
	if err != nil {
		return testbed.GammaComparison{}, err
	}
	return Compare(pred, meas), nil
}

// Compare pairs a predicted and a measured breakdown as a
// testbed.GammaComparison for reports and scorecards.
func Compare(predicted, measured Breakdown) testbed.GammaComparison {
	return testbed.GammaComparison{
		Predicted: breakdownGamma(predicted),
		Measured:  breakdownGamma(measured),
	}
}

func breakdownGamma(b Breakdown) testbed.GammaBreakdown {
	return testbed.GammaBreakdown{Gamma: b.Gamma, Phi: b.Phi, Mu: b.Mu, Pl: b.Pl, Pd: b.Pd}
}
