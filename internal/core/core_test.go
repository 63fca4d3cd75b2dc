package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"kafkarel/internal/ann"
	"kafkarel/internal/features"
)

// syntheticDataset builds a dataset whose Pl/Pd are smooth functions of
// the features, mimicking the simulator's response surfaces.
func syntheticDataset(semantics []int) features.Dataset {
	var ds features.Dataset
	truth := func(v features.Vector) (float64, float64) {
		m := float64(v.MessageSize)
		pl := v.LossRate * (1 - m/1200) * 2
		if v.Semantics == features.SemanticsAtLeastOnce {
			pl *= 0.7
		}
		pl += 0.1 * math.Exp(-float64(v.MessageTimeout)/float64(time.Second))
		if pl > 1 {
			pl = 1
		}
		if pl < 0 {
			pl = 0
		}
		pd := 0.0
		if v.Semantics != features.SemanticsAtMostOnce {
			pd = 0.05 * v.LossRate / float64(v.BatchSize)
		}
		return pl, pd
	}
	for _, sem := range semantics {
		for _, m := range []int{100, 200, 400, 800} {
			for _, l := range []float64{0, 0.1, 0.2, 0.3} {
				for _, b := range []int{1, 2, 5} {
					for _, to := range []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond} {
						v := features.Vector{
							MessageSize:    m,
							Timeliness:     5 * time.Second,
							DelayMs:        50,
							LossRate:       l,
							Semantics:      sem,
							BatchSize:      b,
							PollInterval:   0,
							MessageTimeout: to,
						}
						pl, pd := truth(v)
						ds = append(ds, features.Sample{X: v, Pl: pl, Pd: pd})
					}
				}
			}
		}
	}
	return ds
}

func TestTrainReachesPaperMAE(t *testing.T) {
	ds := syntheticDataset([]int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce})
	p, m, err := Train(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.MAE >= 0.02 {
		t.Fatalf("MAE = %v, want < 0.02 (the paper's bar); per-semantics: %+v", m.MAE, m.PerSemantics)
	}
	if len(p.models) != 2 {
		t.Errorf("semantics models = %d", len(p.models))
	}
	heldOut := 0
	for sem, sm := range m.PerSemantics {
		if sm.TrainSamples+sm.TestSamples != len(ds)/2 || sm.TestSamples != len(ds)/2/5 {
			t.Errorf("semantics %d: split %d/%d of %d samples, want 20 %% held out", sem, sm.TrainSamples, sm.TestSamples, len(ds)/2)
		}
		heldOut += sm.TestSamples
	}
	// HeldOut is exactly the samples the metrics were computed over.
	if len(m.HeldOut) != heldOut {
		t.Fatalf("HeldOut has %d samples, metrics count %d", len(m.HeldOut), heldOut)
	}
	for i, s := range m.HeldOut {
		if i > 0 && s.X.Semantics < m.HeldOut[i-1].X.Semantics {
			t.Fatalf("HeldOut not in ascending semantics order at %d", i)
		}
	}
}

func TestPredictMatchesGroundTruth(t *testing.T) {
	ds := syntheticDataset([]int{features.SemanticsAtLeastOnce})
	p, _, err := Train(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Interior point not necessarily on the training grid.
	v := features.Vector{
		MessageSize:    300,
		Timeliness:     5 * time.Second,
		DelayMs:        50,
		LossRate:       0.15,
		Semantics:      features.SemanticsAtLeastOnce,
		BatchSize:      2,
		MessageTimeout: time.Second,
	}
	pred, err := p.Predict(v)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Pl < 0 || pred.Pl > 1 || pred.Pd < 0 || pred.Pd > 1 {
		t.Errorf("prediction outside [0,1]: %+v", pred)
	}
	// Monotonicity learned from data: higher loss rate → higher Pl.
	lo, hi := v, v
	lo.LossRate = 0.02
	hi.LossRate = 0.3
	pLo, err := p.Predict(lo)
	if err != nil {
		t.Fatal(err)
	}
	pHi, err := p.Predict(hi)
	if err != nil {
		t.Fatal(err)
	}
	if pHi.Pl <= pLo.Pl {
		t.Errorf("Pl not increasing in L: %v at L=0.02, %v at L=0.3", pLo.Pl, pHi.Pl)
	}
}

func TestAtMostOncePredictsZeroPd(t *testing.T) {
	ds := syntheticDataset([]int{features.SemanticsAtMostOnce})
	p, _, err := Train(ds, 7)
	if err != nil {
		t.Fatal(err)
	}
	v := ds[0].X
	pred, err := p.Predict(v)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Pd != 0 {
		t.Errorf("at-most-once Pd = %v, want exactly 0", pred.Pd)
	}
}

func TestPredictUnknownSemantics(t *testing.T) {
	ds := syntheticDataset([]int{features.SemanticsAtMostOnce})
	p, _, err := Train(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := ds[0].X
	v.Semantics = features.SemanticsExactlyOnce
	if _, err := p.Predict(v); err == nil {
		t.Error("unknown semantics accepted")
	}
	v.Semantics = 99
	if _, err := p.Predict(v); err == nil {
		t.Error("invalid vector accepted")
	}
}

func TestTrainValidation(t *testing.T) {
	if _, _, err := Train(nil, 1); err == nil {
		t.Error("empty dataset accepted")
	}
	ds := syntheticDataset([]int{features.SemanticsAtMostOnce})
	if _, _, err := Train(ds[:4], 1); err == nil {
		t.Error("undersized per-semantics dataset accepted")
	}
	bad := features.Dataset{{X: features.Vector{}, Pl: 0}}
	if _, _, err := Train(bad, 1); err == nil {
		t.Error("invalid vector accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := syntheticDataset([]int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce})
	p, _, err := Train(ds, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds[:20] {
		a, err := p.Predict(s.X)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Predict(s.X)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("loaded predictor differs: %+v vs %+v", a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("junk")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"version":1}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"version":2,"models":{}}`)); err == nil {
		t.Error("empty predictor accepted")
	}
}

// Each hostile file is a valid save with one part made inconsistent with
// the semantics that routes to it; Predict would index past a slice on
// any of them, so Load must refuse them all.
func TestLoadRejectsHostileFiles(t *testing.T) {
	ds := syntheticDataset([]int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce})
	p, _, err := Train(ds, 9)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatal(err)
	}
	var wider bytes.Buffer
	if err := ann.New(inputDim+1, 1, 0).Save(&wider); err != nil {
		t.Fatal(err)
	}
	seven := `[0,0,0,0,0,0,0]`
	cases := map[string]func(models, norms map[string]json.RawMessage){
		"two outputs read from a one-output network": func(m, _ map[string]json.RawMessage) { m["2"] = m["1"] },
		"one output read from a two-output network":  func(m, _ map[string]json.RawMessage) { m["1"] = m["2"] },
		"network wider than the encoding":            func(m, _ map[string]json.RawMessage) { m["1"] = wider.Bytes() },
		"normalizer max shorter than min": func(_, n map[string]json.RawMessage) {
			n["1"] = json.RawMessage(`{"min":` + seven + `,"max":[1]}`)
		},
		"normalizer narrower than the encoding": func(_, n map[string]json.RawMessage) {
			n["2"] = json.RawMessage(`{"min":[0,0],"max":[1,1]}`)
		},
		"normalizer missing": func(_, n map[string]json.RawMessage) { delete(n, "2") },
		"unknown semantics": func(m, n map[string]json.RawMessage) {
			m["9"], n["9"] = m["2"], n["2"]
		},
	}
	for name, mutate := range cases {
		var file map[string]json.RawMessage
		if err := json.Unmarshal(saved.Bytes(), &file); err != nil {
			t.Fatal(err)
		}
		var models, norms map[string]json.RawMessage
		if err := json.Unmarshal(file["models"], &models); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(file["normalizers"], &norms); err != nil {
			t.Fatal(err)
		}
		mutate(models, norms)
		var err error
		if file["models"], err = json.Marshal(models); err != nil {
			t.Fatal(err)
		}
		if file["normalizers"], err = json.Marshal(norms); err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEncodeInputDropsSemantics(t *testing.T) {
	v := features.Vector{
		MessageSize:    100,
		Timeliness:     time.Second,
		DelayMs:        10,
		LossRate:       0.5,
		Semantics:      features.SemanticsExactlyOnce,
		BatchSize:      3,
		PollInterval:   20 * time.Millisecond,
		MessageTimeout: time.Second,
	}
	in := encodeInput(v)
	if len(in) != inputDim {
		t.Fatalf("input dim = %d, want %d", len(in), inputDim)
	}
	// Changing semantics must not change the encoding.
	v2 := v
	v2.Semantics = features.SemanticsAtMostOnce
	in2 := encodeInput(v2)
	for i := range in {
		if in[i] != in2[i] {
			t.Errorf("encoding depends on semantics at dim %d", i)
		}
	}
}
