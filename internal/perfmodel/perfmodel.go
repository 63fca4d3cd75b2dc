// Package perfmodel predicts the performance half of the paper's
// weighted KPI (Eq. 2): the bandwidth utilisation φ and the normalised
// service rate μ of a producer under good network conditions. It stands
// in for the queueing model of the authors' earlier work (Wu et al.,
// HPCC 2019, ref. [6]), which the paper imports rather than re-derives.
package perfmodel

import (
	"fmt"

	"kafkarel/internal/features"
	"kafkarel/internal/testbed"
)

// Model computes φ and μ from the same host calibration the testbed
// simulates, so predictions and measurements share one parameterisation.
type Model struct {
	cal testbed.Calibration
}

// New builds a model; a zero calibration takes the defaults.
func New(cal testbed.Calibration) (*Model, error) {
	if cal == (testbed.Calibration{}) {
		cal = testbed.DefaultCalibration()
	}
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	return &Model{cal: cal}, nil
}

// perRequestOverheadBytes approximates frame + request + batch header
// bytes shared by all records in one produce request.
const perRequestOverheadBytes = 60

// perRecordOverheadBytes is the wire overhead per record.
const perRecordOverheadBytes = 20

// Prediction is the performance half of the KPI.
type Prediction struct {
	// Phi is the predicted bandwidth utilisation φ ∈ [0, 1].
	Phi float64
	// Mu is the normalised service rate μ ∈ [0, 1]: the producer's send
	// capacity relative to the offered load, capped at 1.
	Mu float64
	// ServiceRate is the unnormalised capacity in messages per second.
	ServiceRate float64
	// ArrivalRate is the offered load λ in messages per second.
	ArrivalRate float64
}

// Predict computes φ and μ for a feature vector under good network
// conditions (Sec. IV: "Both can be predicted for a given system
// deployment and configuration parameters").
func (m *Model) Predict(v features.Vector) (Prediction, error) {
	if err := v.Validate(); err != nil {
		return Prediction{}, fmt.Errorf("perfmodel: %w", err)
	}
	ioMeanSec := 1 / m.cal.FullLoadRate(v.MessageSize)
	arrival := 1 / (ioMeanSec + v.PollInterval.Seconds())

	// Send-path capacity: serialisation per record, request overhead
	// amortised over the batch, plus the ack round trip pinned by the
	// in-flight window (negligible on a good LAN, grows with D).
	serSec := ioMeanSec * m.cal.SerFactor
	rttSec := 2 * v.DelayMs / 1000
	perMsg := serSec + rttSec/float64(testbed.DefaultMaxInFlight*v.BatchSize)
	if v.Semantics == features.SemanticsAtMostOnce {
		perMsg = serSec // fire-and-forget is not paced by acknowledgements
	}
	service := 1 / perMsg

	bytesPerMsg := float64(v.MessageSize + perRecordOverheadBytes)
	bytesPerMsg += perRequestOverheadBytes / float64(v.BatchSize)
	throughput := min(arrival, service)
	phi := throughput * bytesPerMsg * 8 / m.cal.Bandwidth
	if phi > 1 {
		phi = 1
	}
	mu := service / arrival
	if mu > 1 {
		mu = 1
	}
	return Prediction{Phi: phi, Mu: mu, ServiceRate: service, ArrivalRate: arrival}, nil
}
