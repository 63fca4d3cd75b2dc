package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

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
	if _, err := Load(bytes.NewBufferString(`{"version":2}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"version":3,"models":{}}`)); err == nil {
		t.Error("empty predictor accepted")
	}
}

// savedPredictor is a valid save of a two-semantics predictor.
func savedPredictor(t testing.TB) []byte {
	t.Helper()
	ds := syntheticDataset([]int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce})
	p, _, err := Train(ds, 9)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatal(err)
	}
	return saved.Bytes()
}

// Each hostile file is a valid save with one part made inconsistent with
// the semantics that routes to it, or with bounds under which Predict
// would not return a finite probability; Predict would index past a
// slice or overflow on any of them, so Load must refuse them all.
func TestLoadRejectsHostileFiles(t *testing.T) {
	saved := savedPredictor(t)
	seven := `[0,0,0,0,0,0,0]`
	huge := strings.TrimSuffix(strings.Repeat("1e308,", basisDim), ",")
	cases := map[string]func(models map[string]map[string]json.RawMessage){
		"two outputs read from a one-output model": func(m map[string]map[string]json.RawMessage) {
			m["2"]["weights"] = m["1"]["weights"]
		},
		"one output read from a two-output model": func(m map[string]map[string]json.RawMessage) {
			m["1"]["weights"] = m["2"]["weights"]
		},
		"weight vector shorter than the basis": func(m map[string]map[string]json.RawMessage) {
			m["1"]["weights"] = json.RawMessage(`[[0,0,0]]`)
		},
		"weights whose sum overflows": func(m map[string]map[string]json.RawMessage) {
			m["1"]["weights"] = json.RawMessage(`[[` + huge + `]]`)
		},
		"weights missing": func(m map[string]map[string]json.RawMessage) { delete(m["2"], "weights") },
		"normalizer max shorter than min": func(m map[string]map[string]json.RawMessage) {
			m["1"]["normalizer"] = json.RawMessage(`{"min":` + seven + `,"max":[1]}`)
		},
		"normalizer narrower than the encoding": func(m map[string]map[string]json.RawMessage) {
			m["2"]["normalizer"] = json.RawMessage(`{"min":[0,0],"max":[1,1]}`)
		},
		"normalizer bounds inverted": func(m map[string]map[string]json.RawMessage) {
			m["2"]["normalizer"] = json.RawMessage(`{"min":[0,0,0,0,0,0,1],"max":[1,1,1,1,1,1,0]}`)
		},
		"normalizer span overflows": func(m map[string]map[string]json.RawMessage) {
			m["2"]["normalizer"] = json.RawMessage(`{"min":[0,0,0,0,0,0,-1e308],"max":[1,1,1,1,1,1,1e308]}`)
		},
		"normalizer missing": func(m map[string]map[string]json.RawMessage) { delete(m["2"], "normalizer") },
		"unknown semantics":  func(m map[string]map[string]json.RawMessage) { m["9"] = m["2"] },
	}
	for name, mutate := range cases {
		var file map[string]json.RawMessage
		if err := json.Unmarshal(saved, &file); err != nil {
			t.Fatal(err)
		}
		var models map[string]map[string]json.RawMessage
		if err := json.Unmarshal(file["models"], &models); err != nil {
			t.Fatal(err)
		}
		mutate(models)
		var err error
		if file["models"], err = json.Marshal(models); err != nil {
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
	if _, err := Load(bytes.NewReader(saved)); err != nil {
		t.Fatalf("unmutated save rejected: %v", err)
	}
}

// A loaded predictor either fails to load or predicts a finite
// probability for every valid vector of a semantics it models.
func FuzzPredictorLoad(f *testing.F) {
	saved := savedPredictor(f)
	f.Add(saved)
	f.Add([]byte(`{"version":3,"models":{"1":{"normalizer":{"min":[0,0,0,0,0,0,0],"max":[1,1,1,1,1,1,1]},"weights":[[]]}}}`))
	f.Add([]byte(`{"version":3,"models":{"2":null}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for sem := range p.models {
			for _, v := range []features.Vector{
				{MessageSize: 1, Timeliness: time.Millisecond, Semantics: sem, BatchSize: 1, MessageTimeout: time.Millisecond},
				{MessageSize: 1 << 20, Timeliness: time.Hour, DelayMs: 1e4, LossRate: 1, Semantics: sem,
					BatchSize: 1 << 12, PollInterval: time.Minute, MessageTimeout: time.Hour},
			} {
				pred, err := p.Predict(v)
				if err != nil {
					t.Fatalf("semantics %d: %v", sem, err)
				}
				for _, q := range []float64{pred.Pl, pred.Pd} {
					if !(q >= 0 && q <= 1) {
						t.Fatalf("semantics %d: prediction %+v outside [0, 1]", sem, pred)
					}
				}
			}
		}
	})
}

// Two trainings on the same dataset and seed save the same bytes.
func TestTrainIsDeterministic(t *testing.T) {
	if a, b := savedPredictor(t), savedPredictor(t); !bytes.Equal(a, b) {
		t.Fatal("two saves of the same (dataset, seed) differ")
	}
}

// The fit is the penalised optimum: at the returned weights the
// gradient of cross-entropy plus λ/2·|w[1:]|² vanishes, which for a
// strictly convex objective singles out its minimum.
func TestFitIsPenalisedOptimum(t *testing.T) {
	const n, p = 40, 10
	rng := rand.New(rand.NewPCG(1, 2))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, p)
		x[i][0] = 1
		for j := 1; j < p; j++ {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = rng.Float64()
	}
	w, err := fitLogistic(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < p; a++ {
		g := 0.0
		for i, row := range x {
			g += (sigmoid(dot(row, w)) - y[i]) * row[a]
		}
		if a > 0 {
			g += lambda * w[a]
		}
		if math.Abs(g) > 1e-9 {
			t.Errorf("gradient[%d] = %g at the fitted weights", a, g)
		}
	}
}

func TestBasisIsEveryMonomialOfDegreeAtMostThree(t *testing.T) {
	// Distinct primes: every monomial of degree ≤ 3 is a distinct product.
	x := []float64{2, 3, 5, 7, 11, 13, 17}
	b := basis(x)
	if len(b) != basisDim || basisDim != 120 {
		t.Fatalf("basis has %d terms, basisDim %d, want 120", len(b), basisDim)
	}
	seen := make(map[float64]bool, len(b))
	for _, v := range b {
		if seen[v] {
			t.Fatalf("monomial %v appears twice", v)
		}
		seen[v] = true
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
