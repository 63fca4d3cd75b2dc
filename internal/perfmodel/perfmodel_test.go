package perfmodel

import (
	"testing"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/testbed"
)

func vec(m int, b int, sem int, delta time.Duration) features.Vector {
	return features.Vector{
		MessageSize:    m,
		Timeliness:     5 * time.Second,
		Semantics:      sem,
		BatchSize:      b,
		PollInterval:   delta,
		MessageTimeout: time.Second,
	}
}

func TestNewDefaults(t *testing.T) {
	m, err := New(testbed.Calibration{})
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil model")
	}
	bad := testbed.DefaultCalibration()
	bad.Bandwidth = -1
	if _, err := New(bad); err == nil {
		t.Error("invalid calibration accepted")
	}
}

func TestRangesAndValidation(t *testing.T) {
	m, err := New(testbed.Calibration{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Predict(vec(200, 1, features.SemanticsAtLeastOnce, 0))
	if err != nil {
		t.Fatal(err)
	}
	if p.Phi < 0 || p.Phi > 1 || p.Mu < 0 || p.Mu > 1 {
		t.Errorf("out of range: %+v", p)
	}
	if p.ServiceRate <= 0 || p.ArrivalRate <= 0 {
		t.Errorf("degenerate rates: %+v", p)
	}
	if _, err := m.Predict(features.Vector{}); err == nil {
		t.Error("invalid vector accepted")
	}
}

func TestServiceRateFallsWithMessageSize(t *testing.T) {
	// Sec. IV-A: "with larger M the service rate μ is lower".
	m, err := New(testbed.Calibration{})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, size := range []int{1000, 500, 200, 100} {
		p, err := m.Predict(vec(size, 1, features.SemanticsAtLeastOnce, 0))
		if err != nil {
			t.Fatal(err)
		}
		if p.ServiceRate <= prev {
			t.Errorf("service rate %v at M=%d not above previous %v", p.ServiceRate, size, prev)
		}
		prev = p.ServiceRate
	}
}

func TestPollIntervalLowersLoadRaisesMu(t *testing.T) {
	m, err := New(testbed.Calibration{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.Predict(vec(200, 1, features.SemanticsAtLeastOnce, 0))
	if err != nil {
		t.Fatal(err)
	}
	paced, err := m.Predict(vec(200, 1, features.SemanticsAtLeastOnce, 90*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if paced.ArrivalRate >= full.ArrivalRate {
		t.Errorf("arrival did not fall with δ: %v vs %v", paced.ArrivalRate, full.ArrivalRate)
	}
	if paced.Mu < full.Mu {
		t.Errorf("μ fell with δ: %v vs %v", paced.Mu, full.Mu)
	}
}

func TestBatchingAmortisesAckPacing(t *testing.T) {
	m, err := New(testbed.Calibration{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := vec(200, 1, features.SemanticsAtLeastOnce, 0)
	v1.DelayMs = 100
	v5 := v1
	v5.BatchSize = 5
	p1, err := m.Predict(v1)
	if err != nil {
		t.Fatal(err)
	}
	p5, err := m.Predict(v5)
	if err != nil {
		t.Fatal(err)
	}
	if p5.ServiceRate <= p1.ServiceRate {
		t.Errorf("batching did not raise acked service rate: %v vs %v", p5.ServiceRate, p1.ServiceRate)
	}
}

func TestAtMostOnceIgnoresDelayPacing(t *testing.T) {
	m, err := New(testbed.Calibration{})
	if err != nil {
		t.Fatal(err)
	}
	near := vec(200, 1, features.SemanticsAtMostOnce, 0)
	far := near
	far.DelayMs = 200
	pNear, err := m.Predict(near)
	if err != nil {
		t.Fatal(err)
	}
	pFar, err := m.Predict(far)
	if err != nil {
		t.Fatal(err)
	}
	if pNear.ServiceRate != pFar.ServiceRate {
		t.Errorf("fire-and-forget service rate depends on delay: %v vs %v",
			pNear.ServiceRate, pFar.ServiceRate)
	}
}
