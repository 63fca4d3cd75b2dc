package stats

import (
	"fmt"
	"math"
)

// Summary accumulates count/mean/variance/min/max online (Welford's
// algorithm), so hot simulator paths can record samples without storing
// them.
type Summary struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Mean returns the running mean (0 with no samples).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// samples).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest sample (0 with no samples).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 with no samples).
func (s *Summary) Max() float64 { return s.max }

// Merge folds another summary into this one (Chan et al.'s parallel
// variance combination), used when aggregating per-producer results.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n1, n2 := float64(s.n), float64(o.n)
	delta := o.mean - s.mean
	total := n1 + n2
	s.m2 += o.m2 + delta*delta*n1*n2/total
	s.mean += delta * n2 / total
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// String renders the summary for logs and experiment reports.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// MAE returns the mean absolute error between prediction and truth slices.
func MAE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("stats: MAE length mismatch %d vs %d", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("stats: MAE of empty slices")
	}
	sum := 0.0
	for i := range pred {
		sum += math.Abs(pred[i] - truth[i])
	}
	return sum / float64(len(pred)), nil
}

// RMSE returns the root mean squared error between prediction and truth.
func RMSE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("stats: RMSE length mismatch %d vs %d", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("stats: RMSE of empty slices")
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred))), nil
}
