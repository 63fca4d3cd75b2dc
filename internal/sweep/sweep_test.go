package sweep

import (
	"context"
	"testing"
	"time"

	"kafkarel/internal/features"
)

func TestGridsWellFormed(t *testing.T) {
	normal := NormalGrid()
	abnormal := AbnormalGrid()
	if len(normal) == 0 || len(abnormal) == 0 {
		t.Fatal("empty grids")
	}
	for i, v := range normal {
		if err := v.Validate(); err != nil {
			t.Fatalf("normal[%d]: %v", i, err)
		}
		if v.LossRate != 0 || v.DelayMs >= 200 {
			t.Fatalf("normal[%d] has injected faults: %+v", i, v)
		}
	}
	seenLoss := false
	for i, v := range abnormal {
		if err := v.Validate(); err != nil {
			t.Fatalf("abnormal[%d]: %v", i, err)
		}
		if v.LossRate > 0 {
			seenLoss = true
		}
	}
	if !seenLoss {
		t.Error("abnormal grid injects no loss")
	}
	// The split keeps the total experiment count tractable relative to
	// the full cross product (the point of Fig. 3): semantics 2 × M 4 ×
	// T_o 5 × δ 4 × D 4 × L 6 × B 4 distinct values.
	if len(normal) != 120 || len(abnormal) != 360 {
		t.Errorf("grids have %d and %d points, want 120 and 360", len(normal), len(abnormal))
	}
	if full := CrossProduct(append(normal, abnormal...)); full != 15360 {
		t.Errorf("full cross product = %d, want 15360", full)
	}
}

func TestCollectSmallGrid(t *testing.T) {
	grid := []features.Vector{
		{
			MessageSize: 200, Timeliness: 5 * time.Second,
			Semantics: features.SemanticsAtLeastOnce, BatchSize: 1,
			PollInterval: 50 * time.Millisecond, MessageTimeout: 2 * time.Second,
		},
		{
			MessageSize: 200, Timeliness: 5 * time.Second, LossRate: 0.25,
			Semantics: features.SemanticsAtMostOnce, BatchSize: 1,
			MessageTimeout: 500 * time.Millisecond,
		},
	}
	ds, err := CollectContext(context.Background(), grid, Options{Messages: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("dataset = %d samples", len(ds))
	}
	// Clean paced run: near-lossless. Faulted full-load run: lossy.
	if ds[0].Pl > 0.05 {
		t.Errorf("clean sample Pl = %v", ds[0].Pl)
	}
	if ds[1].Pl < 0.1 {
		t.Errorf("faulted sample Pl = %v", ds[1].Pl)
	}
}

func TestCollectProgressAndDeterminism(t *testing.T) {
	grid := NormalGrid()[:2]
	var calls []int
	a, err := CollectContext(context.Background(), grid, Options{Messages: 150, Seed: 8, Progress: func(done, total int) {
		calls = append(calls, done)
		if total != 2 {
			t.Errorf("total = %d", total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[1] != 2 {
		t.Errorf("progress calls = %v", calls)
	}
	b, err := CollectContext(context.Background(), grid, Options{Messages: 150, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("collection not deterministic at %d", i)
		}
	}
}

func TestCollectValidation(t *testing.T) {
	if _, err := CollectContext(context.Background(), nil, Options{Messages: 10}); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := CollectContext(context.Background(), NormalGrid()[:1], Options{}); err == nil {
		t.Error("zero messages accepted")
	}
	bad := []features.Vector{{}}
	if _, err := CollectContext(context.Background(), bad, Options{Messages: 10}); err == nil {
		t.Error("invalid vector accepted")
	}
}

func TestSensitivitySelectsKeyParameters(t *testing.T) {
	base := features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        50,
		LossRate:       0.18,
		Semantics:      features.SemanticsAtMostOnce,
		BatchSize:      2,
		PollInterval:   0,
		MessageTimeout: 700 * time.Millisecond,
	}
	results, err := SensitivityContext(context.Background(), base, SensitivityOptions{Messages: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SensitivityResult{}
	for _, r := range results {
		byName[r.Parameter] = r
		if r.Impact < 0 {
			t.Errorf("%s: negative impact", r.Parameter)
		}
	}
	// The paper's selected features must show up as sensitive at this
	// operating point: loss rate and message size dominate Fig. 4.
	for _, key := range []string{"loss_rate", "message_size"} {
		if !byName[key].Selected {
			t.Errorf("%s not selected: %+v", key, byName[key])
		}
	}
	if len(byName) != 6 {
		t.Errorf("parameters analysed = %d, want 6", len(byName))
	}
}

func TestSensitivityValidation(t *testing.T) {
	if _, err := SensitivityContext(context.Background(), features.Vector{}, SensitivityOptions{Messages: 10}); err == nil {
		t.Error("invalid base accepted")
	}
	good := NormalGrid()[0]
	if _, err := SensitivityContext(context.Background(), good, SensitivityOptions{}); err == nil {
		t.Error("zero messages accepted")
	}
}
