package testbed

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// Calibration holds the producer-host cost constants that stand in for
// the paper's CPU-capped Docker containers. The paper fixes the
// producer's hardware resources (Sec. III-D: "we assume that the
// hardware resources for a producer are fixed") and its measured service
// rate μ depends strongly on the message size M (Sec. IV-A, citing [6]).
//
// The defaults below were calibrated so the emergent behaviour of the
// full simulation matches the paper's reported operating points — e.g.
// the full-load intake rate for 100-byte messages (~300 msg/s) sits far
// above the degraded TCP capacity at 19 % loss (driving Fig. 4's 85 % /
// 63 % losses), while the rate for 1000-byte messages (~1 msg/s) sits
// below it (both curves < 1 %). See DESIGN.md §5 and EXPERIMENTS.md for
// the calibration story and residual deviations.
type Calibration struct {
	// IOCoeffMicros and IOExp define the per-message source-acquisition
	// cost IOTime(M) = IOCoeffMicros · M^IOExp microseconds — the
	// "highest speed that I/O devices can handle" at full load
	// (Sec. IV-C). The superlinear exponent reflects the steep measured
	// μ(M) dependence of [6] on the containerised producer.
	IOCoeffMicros float64
	IOExp         float64
	// SerFactor scales the send-path serialisation cost relative to the
	// mean IOTime; below 1 keeps nominal capacity above full-load intake
	// so congestion comes in episodes rather than unbounded growth.
	SerFactor float64
	// Jitter is the ± relative uniform jitter on both costs.
	Jitter float64
	// Stall* give the send path a heavy-tailed service component (GC
	// pauses, container CPU throttling): each record's serialisation
	// stalls with probability StallProb for a uniform duration in
	// [StallMinMs, StallMaxMs]. In M/G/1 terms this creates the large
	// E[S²] that makes full-load waiting times heavy-tailed — the physics
	// behind Fig. 5's T_o curve and Fig. 6's δ=0 point — while keeping
	// waits λ-sensitive so increasing δ drains the tail.
	StallProb  float64
	StallMinMs float64
	StallMaxMs float64
	// SocketBuffer is the TCP send-buffer size in bytes; when degraded
	// TCP fills it, records back up in the accumulator where their
	// delivery budgets expire.
	SocketBuffer int
	// Bandwidth is the link rate in bits per second.
	Bandwidth float64
}

// DefaultCalibration returns the constants used throughout the
// reproduction.
func DefaultCalibration() Calibration {
	return Calibration{
		IOCoeffMicros: 0.43,
		IOExp:         2.11,
		SerFactor:     0.6,
		Jitter:        0.15,
		StallProb:     0.009,
		StallMinMs:    700,
		StallMaxMs:    1300,
		SocketBuffer:  32 * 1024,
		Bandwidth:     100e6,
	}
}

// Validate reports the first nonsensical constant.
func (c Calibration) Validate() error {
	switch {
	case c.IOCoeffMicros <= 0 || c.IOExp <= 0:
		return fmt.Errorf("testbed: IO cost constants must be positive")
	case c.SerFactor <= 0:
		return fmt.Errorf("testbed: serialisation factor must be positive")
	case c.Jitter < 0 || c.Jitter >= 1:
		return fmt.Errorf("testbed: jitter %v outside [0,1)", c.Jitter)
	case c.StallProb < 0 || c.StallProb > 1:
		return fmt.Errorf("testbed: stall probability %v outside [0,1]", c.StallProb)
	case c.StallMaxMs < c.StallMinMs:
		return fmt.Errorf("testbed: stall max below min")
	case c.SocketBuffer <= 0:
		return fmt.Errorf("testbed: socket buffer must be positive")
	case c.Bandwidth <= 0:
		return fmt.Errorf("testbed: bandwidth must be positive")
	default:
		return nil
	}
}

// resolved returns the calibration a run uses — the defaults when c is
// the zero value — or the first nonsensical constant.
func (c Calibration) resolved() (Calibration, error) {
	if c == (Calibration{}) {
		c = DefaultCalibration()
	}
	return c, c.Validate()
}

// ioMeanMicros returns the mean acquisition cost in microseconds for a
// message of m bytes.
func (c Calibration) ioMeanMicros(m int) float64 {
	if m < 1 {
		m = 1
	}
	return c.IOCoeffMicros * math.Pow(float64(m), c.IOExp)
}

// FullLoadRate returns the mean full-load intake rate 1/IOTime(M) in
// messages per second — the λ of Sec. IV-C at δ = 0.
func (c Calibration) FullLoadRate(m int) float64 {
	return 1e6 / c.ioMeanMicros(m)
}

// costModel implements producer.CostModel with the calibrated constants.
type costModel struct {
	cal Calibration
	rng *rand.Rand
	// lastBytes/lastMicros memoise ioMeanMicros: the payload size is
	// constant within a run and math.Pow per record is not cheap. The
	// same input gives the same float, so results are bit-identical.
	lastBytes  int
	lastMicros float64
}

func newCostModel(cal Calibration, rng *rand.Rand) *costModel {
	return &costModel{cal: cal, rng: rng, lastBytes: -1}
}

func (cm *costModel) ioMeanMicros(m int) float64 {
	if m != cm.lastBytes {
		cm.lastBytes, cm.lastMicros = m, cm.cal.ioMeanMicros(m)
	}
	return cm.lastMicros
}

func (cm *costModel) jitter() float64 {
	if cm.cal.Jitter == 0 {
		return 1
	}
	return 1 - cm.cal.Jitter + 2*cm.cal.Jitter*cm.rng.Float64()
}

// IOTime implements producer.CostModel.
func (cm *costModel) IOTime(payloadBytes int) time.Duration {
	us := cm.ioMeanMicros(payloadBytes) * cm.jitter()
	return time.Duration(us * float64(time.Microsecond))
}

// SerTime implements producer.CostModel.
func (cm *costModel) SerTime(payloadBytes int) time.Duration {
	us := cm.ioMeanMicros(payloadBytes) * cm.cal.SerFactor * cm.jitter()
	d := time.Duration(us * float64(time.Microsecond))
	if cm.cal.StallProb > 0 && cm.rng.Float64() < cm.cal.StallProb {
		stall := cm.cal.StallMinMs + (cm.cal.StallMaxMs-cm.cal.StallMinMs)*cm.rng.Float64()
		d += time.Duration(stall * float64(time.Millisecond))
	}
	return d
}
