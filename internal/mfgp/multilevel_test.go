package mfgp

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
)

// threeLevelData builds a nested 1-D design for the chain
// f0 = sin(8πx), f1 = f0², f2 = (x−√2)·f1.
func threeLevelData() (X [][][]float64, y [][]float64, f2 func(float64) float64) {
	f0 := func(x float64) float64 { return math.Sin(8 * math.Pi * x) }
	f1 := func(x float64) float64 { v := f0(x); return v * v }
	f2 = func(x float64) float64 { return (x - math.Sqrt2) * f1(x) }
	grid := func(n int) (X [][]float64) {
		for i := 0; i < n; i++ {
			X = append(X, []float64{float64(i) / float64(n-1)})
		}
		return
	}
	apply := func(X [][]float64, f func(float64) float64) (y []float64) {
		for _, x := range X {
			y = append(y, f(x[0]))
		}
		return
	}
	X0, X1, X2 := grid(60), grid(25), grid(12)
	return [][][]float64{X0, X1, X2},
		[][]float64{apply(X0, f0), apply(X1, f1), apply(X2, f2)}, f2
}

// nargpGridPath holds the frozen two-fidelity NARGP posterior of the
// pedagogical example: fused and level-0 mean/variance bits on a 101-point
// grid, per propagation mode, recorded once and never regenerated.
const nargpGridPath = "testdata/nargp_posterior.json"

// nargpGrid is one propagation mode's frozen posterior, Float64bits in hex.
type nargpGrid struct {
	Mean    []string `json:"mean"`
	Var     []string `json:"var"`
	LowMean []string `json:"low_mean"`
	LowVar  []string `json:"low_var"`
}

// checkNARGPGrid compares a posterior against the frozen grid bit for bit.
func checkNARGPGrid(t *testing.T, want nargpGrid, fused, low func([]float64) (float64, float64)) {
	t.Helper()
	hx := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	for i := 0; i <= 100; i++ {
		x := []float64{float64(i) / 100}
		mu, va := fused(x)
		ml, vl := low(x)
		if hx(mu) != want.Mean[i] || hx(va) != want.Var[i] {
			t.Fatalf("x=%v: fused posterior (%v ± %v) drifted from the frozen grid", x[0], mu, va)
		}
		if hx(ml) != want.LowMean[i] || hx(vl) != want.LowVar[i] {
			t.Fatalf("x=%v: level-0 posterior (%v ± %v) drifted from the frozen grid", x[0], ml, vl)
		}
	}
}

func level0(m *MultiLevel) func([]float64) (float64, float64) {
	return func(x []float64) (float64, float64) { return m.PredictLevel(x, 0) }
}

func loadNARGPGrid(t *testing.T) map[string]nargpGrid {
	t.Helper()
	raw, err := os.ReadFile(nargpGridPath)
	if err != nil {
		t.Fatal(err)
	}
	var grids map[string]nargpGrid
	if err := json.Unmarshal(raw, &grids); err != nil {
		t.Fatal(err)
	}
	return grids
}

// TestMultiLevelMatchesNARGP pins the two-fidelity NARGP posterior against
// the frozen grid: same rng stream, same level-0 GP, same augmented design,
// same propagation collapse, bit for bit, for Gauss–Hermite and Monte-Carlo
// propagation. A chain refit on the SAME datasets with the fitted
// hyperparameters frozen must reproduce it to numerical precision.
func TestMultiLevelMatchesNARGP(t *testing.T) {
	Xl, yl, Xh, yh := pedagogicalData()
	grids := loadNARGPGrid(t)
	mc, err := Fit(Xl, yl, Xh, yh, MultiLevelConfig{
		Restarts: 2, FixedNoise: fixedNoise(1e-6),
		Propagation: MonteCarlo, NumSamples: 20,
	}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	checkNARGPGrid(t, grids["monte-carlo"], mc.Predict, level0(mc))

	rng := rand.New(rand.NewSource(11))
	pair, err := Fit(Xl, yl, Xh, yh, MultiLevelConfig{
		Restarts: 2, FixedNoise: fixedNoise(1e-6),
		Propagation: GaussHermite, NumSamples: 20,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkNARGPGrid(t, grids["gauss-hermite"], pair.Predict, level0(pair))

	ml, err := FitMultiLevel([][][]float64{Xl, Xh}, [][]float64{yl, yh}, MultiLevelConfig{
		FixedNoise:  fixedNoise(1e-6),
		Propagation: GaussHermite, NumSamples: 20,
		WarmStarts:   [][]float64{pair.Level(0).Hyper(), pair.Level(1).Hyper()},
		SkipTraining: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 100; i++ {
		x := []float64{float64(i) / 100}
		muP, vaP := pair.Predict(x)
		muM, vaM := ml.Predict(x)
		if math.Abs(muP-muM) > 1e-8 || math.Abs(vaP-vaM) > 1e-8 {
			t.Fatalf("x=%v: pair (%v ± %v) vs 2-level chain (%v ± %v)", x[0], muP, vaP, muM, vaM)
		}
	}
	// The refit chain's level-0 posterior is the fitted low-fidelity one.
	muPL, vaPL := pair.PredictLevel([]float64{0.37}, 0)
	muML, vaML := ml.PredictLevel([]float64{0.37}, 0)
	if math.Abs(muPL-muML) > 1e-10 || math.Abs(vaPL-vaML) > 1e-10 {
		t.Fatalf("level-0 posterior mismatch: (%v, %v) vs (%v, %v)", muPL, vaPL, muML, vaML)
	}
}

// TestMultiLevelAppendTruncateRoundTrip pins the fantasy-retraction
// contract: appending rows to any single level and truncating back restores
// the chain posterior bit for bit.
func TestMultiLevelAppendTruncateRoundTrip(t *testing.T) {
	X, y, _ := threeLevelData()
	rng := rand.New(rand.NewSource(12))
	m, err := FitMultiLevel(X, y, MultiLevelConfig{
		Restarts: 1, FixedNoise: fixedNoise(1e-6),
		Propagation: GaussHermite, NumSamples: 12,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{0.05}, {0.33}, {0.71}, {0.98}}
	type post struct{ mu, va float64 }
	before := make([][]post, len(m.models))
	for l := 0; l < len(m.models); l++ {
		for _, x := range probe {
			mu, va := m.PredictLevel(x, l)
			before[l] = append(before[l], post{mu, va})
		}
	}
	for l := 0; l < len(m.models); l++ {
		n := m.Level(l).TrainingSize()
		if err := m.AppendLevel(l, []float64{0.5}, 0.1); err != nil {
			t.Fatalf("append level %d: %v", l, err)
		}
		if err := m.AppendLevel(l, []float64{0.6}, -0.2); err != nil {
			t.Fatalf("append level %d: %v", l, err)
		}
		if m.Level(l).TrainingSize() != n+2 {
			t.Fatalf("level %d size %d after append, want %d", l, m.Level(l).TrainingSize(), n+2)
		}
		if err := m.TruncateLevel(l, n); err != nil {
			t.Fatalf("truncate level %d: %v", l, err)
		}
		for lv := 0; lv < len(m.models); lv++ {
			for i, x := range probe {
				mu, va := m.PredictLevel(x, lv)
				if math.Float64bits(mu) != math.Float64bits(before[lv][i].mu) ||
					math.Float64bits(va) != math.Float64bits(before[lv][i].va) {
					t.Fatalf("level %d append/truncate did not restore level-%d posterior at %v: (%v,%v) vs (%v,%v)",
						l, lv, x[0], mu, va, before[lv][i].mu, before[lv][i].va)
				}
			}
		}
	}
}

// TestMultiLevelAppendIncorporatesData checks AppendLevel is a real update,
// not a no-op: appending a target-level observation pulls the chain
// posterior toward it.
func TestMultiLevelAppendIncorporatesData(t *testing.T) {
	X, y, f2 := threeLevelData()
	rng := rand.New(rand.NewSource(13))
	m, err := FitMultiLevel(X, y, MultiLevelConfig{
		Restarts: 1, FixedNoise: fixedNoise(1e-6),
		Propagation: GaussHermite, NumSamples: 12,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Probe midway between the sparse level-2 design points (spacing 1/11),
	// where the target level still carries residual uncertainty. The append
	// freezes the augmented coordinate at the current chain mean; at that
	// exact augmented point the level-2 GP variance must drop (conditioning
	// on a new observation never inflates the posterior there).
	x := []float64{4.5 / 11.0}
	muChain, _ := m.PredictLevel(x, 1)
	aug := []float64{x[0], muChain}
	_, vaBefore := m.Level(2).PredictLatent(aug)
	if err := m.AppendLevel(2, x, f2(x[0])); err != nil {
		t.Fatal(err)
	}
	muLat, vaAfter := m.Level(2).PredictLatent(aug)
	if math.IsNaN(muLat) || vaAfter < 0 {
		t.Fatalf("bad posterior after append: %v ± %v", muLat, vaAfter)
	}
	if vaAfter >= vaBefore {
		t.Fatalf("append did not reduce level-2 variance at the observed point: %v -> %v", vaBefore, vaAfter)
	}
	if muFull, vaFull := m.Predict(x); math.IsNaN(muFull) || vaFull < 0 {
		t.Fatalf("bad chain posterior after append: %v ± %v", muFull, vaFull)
	}
}

// TestMultiLevelCheckpointRoundTrip pins the engine's K-level restore
// protocol: persisting the per-level datasets plus Hyper() and refitting
// with SkipTraining + deterministic propagation reproduces the chain
// posterior bit for bit.
func TestMultiLevelCheckpointRoundTrip(t *testing.T) {
	X, y, _ := threeLevelData()
	rng := rand.New(rand.NewSource(14))
	cfg := MultiLevelConfig{
		Restarts: 1, FixedNoise: fixedNoise(1e-6),
		Propagation: GaussHermite, NumSamples: 12,
	}
	m, err := FitMultiLevel(X, y, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// "Restore": same datasets + saved hypers, no training.
	cfg2 := cfg
	cfg2.WarmStarts = make([][]float64, len(m.models))
	for l, g := range m.models {
		cfg2.WarmStarts[l] = g.Hyper()
	}
	cfg2.SkipTraining = true
	m2, err := FitMultiLevel(X, y, cfg2, rand.New(rand.NewSource(999)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 50; i++ {
		x := []float64{float64(i) / 50}
		for l := 0; l < len(m.models); l++ {
			mu1, va1 := m.PredictLevel(x, l)
			mu2, va2 := m2.PredictLevel(x, l)
			if math.Float64bits(mu1) != math.Float64bits(mu2) ||
				math.Float64bits(va1) != math.Float64bits(va2) {
				t.Fatalf("restore drifted at x=%v level %d: (%v,%v) vs (%v,%v)",
					x[0], l, mu1, va1, mu2, va2)
			}
		}
	}
}

// TestMultiLevelAppendValidation covers the error paths.
func TestMultiLevelAppendValidation(t *testing.T) {
	X, y, _ := threeLevelData()
	rng := rand.New(rand.NewSource(16))
	m, err := FitMultiLevel(X, y, MultiLevelConfig{
		Restarts: 1, FixedNoise: fixedNoise(1e-6), Propagation: GaussHermite,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendLevel(3, []float64{0.5}, 0); err == nil {
		t.Fatal("expected out-of-range level error")
	}
	if err := m.AppendLevel(-1, []float64{0.5}, 0); err == nil {
		t.Fatal("expected negative level error")
	}
	if err := m.AppendLevel(0, []float64{0.5, 0.5}, 0); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	if err := m.TruncateLevel(9, 0); err == nil {
		t.Fatal("expected truncate range error")
	}
}

// TestFitOnBaseErrorWording pins the fused-level fit errors. The BO loop logs
// and checkpoints them as degradation reasons, so the paper's pair keeps the
// two-fidelity wording while longer chains name the failing level.
func TestFitOnBaseErrorWording(t *testing.T) {
	X, y, _ := threeLevelData()
	cfg := MultiLevelConfig{Restarts: 1, FixedNoise: fixedNoise(1e-6)}
	base, err := FitBase(X[0], y[0], 1, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Restarts = -1 // every fused gp.Fit rejects its config
	cases := []struct {
		name string
		X    [][][]float64
		y    [][]float64
		cfg  MultiLevelConfig
		want string
	}{
		{"pair/no-data", [][][]float64{nil}, [][]float64{nil}, cfg,
			"mfgp: need a low-fidelity model and high-fidelity data"},
		{"pair/fit", X[1:2], y[1:2], bad,
			"mfgp: high-fidelity fit: gp: negative restarts -1"},
		{"chain/no-data", [][][]float64{X[1], nil}, [][]float64{y[1], nil}, cfg,
			"mfgp: level 2 has no data"},
		{"chain/fit", X[1:], y[1:], bad,
			"mfgp: level 1 fit: gp: negative restarts -1"},
	}
	for _, c := range cases {
		_, err := FitOnBase(base, c.X, c.y, c.cfg, rand.New(rand.NewSource(6)))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// TestAppendHighTruncateRoundTrip proves the two-level model's fantasy cycle
// is exact: appending high-fidelity observations to level 1 and truncating
// back leaves fused predictions bit-identical.
func TestAppendHighTruncateRoundTrip(t *testing.T) {
	m := fitPedagogical(t, GaussHermite, 3)
	n0 := m.Level(1).TrainingSize()
	probes := [][]float64{{0.11}, {0.42}, {0.87}}
	muBefore := make([]float64, len(probes))
	vaBefore := make([]float64, len(probes))
	for i, p := range probes {
		muBefore[i], vaBefore[i] = m.Predict(p)
	}
	for _, x := range []float64{0.21, 0.63} {
		if err := m.AppendLevel(1, []float64{x}, pedagogicalHigh(x)); err != nil {
			t.Fatalf("append high: %v", err)
		}
	}
	if m.Level(1).TrainingSize() != n0+2 {
		t.Fatalf("high size %d, want %d", m.Level(1).TrainingSize(), n0+2)
	}
	// The appended points must actually influence the posterior.
	changed := false
	for i, p := range probes {
		mu, _ := m.Predict(p)
		if mu != muBefore[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("appended observations left every prediction unchanged")
	}
	if err := m.TruncateLevel(1, n0); err != nil {
		t.Fatalf("truncate high: %v", err)
	}
	for i, p := range probes {
		mu, va := m.Predict(p)
		if mu != muBefore[i] || va != vaBefore[i] {
			t.Fatalf("probe %d changed across append+truncate: µ %v vs %v", i, mu, muBefore[i])
		}
	}
}

// TestAppendHighTracksInterpolation checks the incremental path produces a
// model that roughly interpolates the appended observation, i.e. the bordered
// update carries real information and not just a resized factor.
func TestAppendHighTracksInterpolation(t *testing.T) {
	m := fitPedagogical(t, GaussHermite, 5)
	x := []float64{0.33}
	y := pedagogicalHigh(0.33)
	if err := m.AppendLevel(1, x, y); err != nil {
		t.Fatal(err)
	}
	mu, _ := m.Predict(x)
	if math.Abs(mu-y) > 0.05 {
		t.Fatalf("prediction %v far from appended observation %v", mu, y)
	}
	if err := m.AppendLevel(1, []float64{0.5, 0.5}, 0); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

// TestMultiLevelConstantLowerRung fits chains whose cheaper rungs carry no
// information: a constant level 0 (and, at K=3, a constant middle level)
// under a sin(6x) target. Every propagation mode must still fit, return
// finite posteriors with non-negative variance, and interpolate the target
// level's data.
func TestMultiLevelConstantLowerRung(t *testing.T) {
	grid := func(n int) (X [][]float64) {
		for i := 0; i < n; i++ {
			X = append(X, []float64{float64(i) / float64(n-1)})
		}
		return
	}
	constant := func(X [][]float64, c float64) (y []float64) {
		for range X {
			y = append(y, c)
		}
		return
	}
	Xl, Xh := grid(12), grid(5)
	var yh []float64
	for _, x := range Xh {
		yh = append(yh, math.Sin(6*x[0]))
	}
	chains := map[string]struct {
		X [][][]float64
		y [][]float64
	}{
		"K=2": {[][][]float64{Xl, Xh}, [][]float64{constant(Xl, 0.7), yh}},
		"K=3": {[][][]float64{Xl, grid(8), Xh}, [][]float64{constant(Xl, 0.7), constant(grid(8), -0.4), yh}},
	}
	props := map[string]Propagation{"monte-carlo": MonteCarlo, "gauss-hermite": GaussHermite}
	for cname, c := range chains {
		for pname, prop := range props {
			t.Run(cname+"/"+pname, func(t *testing.T) {
				m, err := FitMultiLevel(c.X, c.y, MultiLevelConfig{
					Restarts: 1, FixedNoise: fixedNoise(1e-6),
					Propagation: prop, NumSamples: 12,
				}, rand.New(rand.NewSource(14)))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i <= 50; i++ {
					x := []float64{float64(i) / 50}
					for l := 0; l < len(m.models); l++ {
						mu, va := m.PredictLevel(x, l)
						if math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsNaN(va) || math.IsInf(va, 0) || va < 0 {
							t.Fatalf("level %d at x=%v: posterior (%v, %v)", l, x[0], mu, va)
						}
					}
				}
				for i, x := range Xh {
					if mu, _ := m.Predict(x); math.Abs(mu-yh[i]) > 1e-6 {
						t.Fatalf("target mean %v at x=%v, want its datum %v", mu, x[0], yh[i])
					}
				}
			})
		}
	}
}
