package producer

import (
	"math/rand/v2"
	"testing"
	"time"
)

func TestNextBackoffFixedWithoutMax(t *testing.T) {
	p := &Producer{cfg: Config{RetryBackoff: 20 * time.Millisecond}}
	b := &batch{}
	for i := 0; i < 3; i++ {
		if d := p.nextBackoff(b); d != 20*time.Millisecond {
			t.Fatalf("attempt %d: backoff = %v, want fixed 20ms", i, d)
		}
	}
}

func TestNextBackoffDecorrelatedJitterBounds(t *testing.T) {
	base := 20 * time.Millisecond
	cap := 300 * time.Millisecond
	p := &Producer{
		cfg:       Config{RetryBackoff: base, RetryBackoffMax: cap},
		retryRand: rand.New(rand.NewPCG(7, 0)),
	}
	b := &batch{}
	prev := base
	var capped int
	for i := 0; i < 200; i++ {
		d := p.nextBackoff(b)
		hi := 3 * prev
		if hi > cap {
			hi = cap
		}
		if d < base || d > hi {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", i, d, base, hi)
		}
		if d > cap/2 {
			capped++
		}
		prev = d
	}
	if capped == 0 {
		t.Error("no draw ever exceeded half the cap in 200 draws; jitter range suspect")
	}
	// Deterministic for a fixed seed.
	q := &Producer{
		cfg:       Config{RetryBackoff: base, RetryBackoffMax: cap},
		retryRand: rand.New(rand.NewPCG(7, 0)),
	}
	pb, qb := &batch{}, &batch{}
	p2 := &Producer{
		cfg:       Config{RetryBackoff: base, RetryBackoffMax: cap},
		retryRand: rand.New(rand.NewPCG(7, 0)),
	}
	for i := 0; i < 50; i++ {
		if a, b2 := p2.nextBackoff(pb), q.nextBackoff(qb); a != b2 {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, a, b2)
		}
	}
}

func TestConfigRejectsBackoffMaxBelowBase(t *testing.T) {
	cfg := Config{
		Topic: "t", Semantics: AtLeastOnce, BatchSize: 1, MessageTimeout: time.Second,
		RetryBackoff: 20 * time.Millisecond, RequestTimeout: time.Second, MaxInFlight: 5, QueueLimit: 500,
	}
	cfg.RetryBackoffMax = cfg.RetryBackoff / 2
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted RetryBackoffMax below RetryBackoff")
	}
	cfg.RetryBackoffMax = cfg.RetryBackoff
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate rejected RetryBackoffMax == RetryBackoff: %v", err)
	}
}
