package testbed

import (
	"math"
	"math/rand/v2"
	"time"
)

// calibration holds the producer-host cost constants that stand in for
// the paper's CPU-capped Docker containers. The paper fixes the
// producer's hardware resources (Sec. III-D: "we assume that the
// hardware resources for a producer are fixed") and its measured service
// rate μ depends strongly on the message size M (Sec. IV-A, citing [6]).
// Every run uses hostCalibration; a recalibration edits its values and
// regenerates results/.
type calibration struct {
	// ioCoeffMicros and ioExp define the per-message source-acquisition
	// cost IOTime(M) = ioCoeffMicros · M^ioExp microseconds — the
	// "highest speed that I/O devices can handle" at full load
	// (Sec. IV-C). The superlinear exponent reflects the steep measured
	// μ(M) dependence of [6] on the containerised producer.
	ioCoeffMicros float64
	ioExp         float64
	// serFactor scales the send-path serialisation cost relative to the
	// mean IOTime; below 1 keeps nominal capacity above full-load intake
	// so congestion comes in episodes rather than unbounded growth.
	serFactor float64
	// jitter is the ± relative uniform jitter on both costs.
	jitter float64
	// stall* give the send path a heavy-tailed service component (GC
	// pauses, container CPU throttling): each record's serialisation
	// stalls with probability stallProb for a uniform duration in
	// [stallMinMs, stallMaxMs]. In M/G/1 terms this creates the large
	// E[S²] that makes full-load waiting times heavy-tailed — the physics
	// behind Fig. 5's T_o curve and Fig. 6's δ=0 point — while keeping
	// waits λ-sensitive so increasing δ drains the tail.
	stallProb  float64
	stallMinMs float64
	stallMaxMs float64
	// socketBuffer is the TCP send-buffer size in bytes; when degraded
	// TCP fills it, records back up in the accumulator where their
	// delivery budgets expire.
	socketBuffer int
	// bandwidth is the link rate in bits per second.
	bandwidth float64
}

// hostCalibration is the one producer host every run models. Its values
// were calibrated so the emergent behaviour of the full simulation
// matches the paper's reported operating points — e.g. the full-load
// intake rate for 100-byte messages (~140 msg/s) sits far above the
// degraded TCP capacity at 19 % loss (driving Fig. 4's 85 % / 63 %
// losses), while the rate for 1000-byte messages (~1 msg/s) sits below
// it (both curves < 1 %). See DESIGN.md §5 and EXPERIMENTS.md for the
// calibration story and residual deviations. Nothing writes it.
var hostCalibration = calibration{
	ioCoeffMicros: 0.43,
	ioExp:         2.11,
	serFactor:     0.6,
	jitter:        0.15,
	stallProb:     0.009,
	stallMinMs:    700,
	stallMaxMs:    1300,
	socketBuffer:  32 * 1024,
	bandwidth:     100e6,
}

// ioMeanMicros returns the mean acquisition cost in microseconds for a
// message of m bytes.
func (c calibration) ioMeanMicros(m int) float64 {
	if m < 1 {
		m = 1
	}
	return c.ioCoeffMicros * math.Pow(float64(m), c.ioExp)
}

// FullLoadRate returns the host's mean full-load intake rate 1/IOTime(M)
// in messages per second for m-byte messages — the λ of Sec. IV-C at
// δ = 0.
func FullLoadRate(m int) float64 {
	return 1e6 / hostCalibration.ioMeanMicros(m)
}

// costModel implements producer.CostModel with the calibrated constants.
type costModel struct {
	cal calibration
	rng *rand.Rand
	// lastBytes/lastMicros memoise ioMeanMicros: the payload size is
	// constant within a run and math.Pow per record is not cheap. The
	// same input gives the same float, so results are bit-identical.
	lastBytes  int
	lastMicros float64
}

func newCostModel(cal calibration, rng *rand.Rand) *costModel {
	return &costModel{cal: cal, rng: rng, lastBytes: -1}
}

func (cm *costModel) ioMeanMicros(m int) float64 {
	if m != cm.lastBytes {
		cm.lastBytes, cm.lastMicros = m, cm.cal.ioMeanMicros(m)
	}
	return cm.lastMicros
}

func (cm *costModel) jitter() float64 {
	return 1 - cm.cal.jitter + 2*cm.cal.jitter*cm.rng.Float64()
}

// IOTime implements producer.CostModel.
func (cm *costModel) IOTime(payloadBytes int) time.Duration {
	us := cm.ioMeanMicros(payloadBytes) * cm.jitter()
	return time.Duration(us * float64(time.Microsecond))
}

// SerTime implements producer.CostModel.
func (cm *costModel) SerTime(payloadBytes int) time.Duration {
	us := cm.ioMeanMicros(payloadBytes) * cm.cal.serFactor * cm.jitter()
	d := time.Duration(us * float64(time.Microsecond))
	if cm.rng.Float64() < cm.cal.stallProb {
		stall := cm.cal.stallMinMs + (cm.cal.stallMaxMs-cm.cal.stallMinMs)*cm.rng.Float64()
		d += time.Duration(stall * float64(time.Millisecond))
	}
	return d
}
