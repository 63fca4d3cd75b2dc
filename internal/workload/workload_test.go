package workload

import (
	"testing"
)

func TestFixedSource(t *testing.T) {
	s, err := NewFixedSource(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p, ok := s.Next()
		if !ok || len(p) != 100 {
			t.Fatalf("draw %d: ok=%v len=%d", i, ok, len(p))
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("source yielded beyond count")
	}
	if s.left != 0 {
		t.Errorf("Remaining = %d", s.left)
	}
}

func TestFixedSourceValidation(t *testing.T) {
	if _, err := NewFixedSource(-1, 1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewFixedSource(1, -1); err == nil {
		t.Error("negative count accepted")
	}
}

func TestFixedSourceZeroSize(t *testing.T) {
	s, err := NewFixedSource(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := s.Next()
	if !ok || len(p) != 0 {
		t.Errorf("zero-size draw: ok=%v len=%d", ok, len(p))
	}
}

func TestProfilesWellFormed(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("profiles = %d, want 3", len(ps))
	}
	for _, p := range ps {
		sum := 0.0
		for _, w := range p.Weights {
			if w < 0 {
				t.Errorf("%s: negative weight", p.Name)
			}
			sum += w
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: weights sum to %v", p.Name, sum)
		}
		if p.MeanSize <= 0 || p.Timeliness <= 0 {
			t.Errorf("%s: degenerate profile %+v", p.Name, p)
		}
	}
	// Table II orderings: game traffic is the smallest and most urgent;
	// web logs weigh completeness (ω_l) highest.
	if GameTraffic.MeanSize >= WebLogs.MeanSize {
		t.Error("game traffic not smaller than web logs")
	}
	if GameTraffic.Timeliness >= WebLogs.Timeliness {
		t.Error("game traffic not more urgent than web logs")
	}
	for _, p := range ps {
		if p != WebLogs && WebLogs.Weights[0] <= p.Weights[0] {
			t.Errorf("web logs do not weigh completeness above %s", p.Name)
		}
	}
}
