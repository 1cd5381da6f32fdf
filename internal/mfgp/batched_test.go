package mfgp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/stats"
)

// perPointPredictLevel is the propagation of predictLevel with one
// PredictLatent call per cloud node: the reference the batched path must
// reproduce bit for bit.
func perPointPredictLevel(m *MultiLevel, x []float64, l int) (float64, float64) {
	mu, va := m.models[0].PredictLatent(x)
	aug := append(append([]float64(nil), x...), 0)
	for lev := 1; lev <= l; lev++ {
		sd := math.Sqrt(math.Max(va, 0))
		if sd == 0 {
			aug[m.dim] = mu
			mu, va = m.models[lev].PredictLatent(aug)
			if va < 0 {
				va = 0
			}
			continue
		}
		zs := m.zs[lev-1]
		var sumW, meanAcc, m2Acc float64
		for i, z := range zs {
			w := 1.0 / float64(len(zs))
			if m.weights != nil {
				w = m.weights[i]
			}
			aug[m.dim] = mu + sd*z
			mi, vi := m.models[lev].PredictLatent(aug)
			sumW += w
			meanAcc += w * mi
			m2Acc += w * (vi + mi*mi)
		}
		mu = meanAcc / sumW
		va = m2Acc/sumW - mu*mu
		if va < 0 {
			va = 0
		}
	}
	return mu, va
}

// chainSet builds a K-level nested-quality dataset on [0,1]^d: level k is
// sum_j sin(3x_j + j) warped a little more at every level. Level sizes
// shrink toward the target.
func chainSet(seed int64, sizes []int, d int) (X [][][]float64, y [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	lo, hi := make([]float64, d), make([]float64, d)
	for j := range hi {
		hi[j] = 1
	}
	for k, n := range sizes {
		Xk := stats.LatinHypercube(rng, lo, hi, n)
		yk := make([]float64, n)
		for i, x := range Xk {
			s := 0.0
			for j, v := range x {
				s += math.Sin(3*v + float64(j))
			}
			for w := 0; w < k; w++ {
				s = 1.1*s + 0.2*s*s
			}
			yk[i] = s
		}
		X, y = append(X, Xk), append(y, yk)
	}
	return X, y
}

// checkChain compares PredictLevel against the per-point reference on every
// level at a few points.
func checkChain(t *testing.T, m *MultiLevel, pts [][]float64) {
	t.Helper()
	for _, x := range pts {
		for l := 0; l < len(m.models); l++ {
			mu, va := m.PredictLevel(x, l)
			rm, rv := perPointPredictLevel(m, x, l)
			if math.Float64bits(mu) != math.Float64bits(rm) || math.Float64bits(va) != math.Float64bits(rv) {
				t.Fatalf("level %d at %v: batched (%v, %v) != per-point (%v, %v)", l, x, mu, va, rm, rv)
			}
		}
	}
}

func TestPredictLevelMatchesPerPoint(t *testing.T) {
	const d = 3
	for _, prop := range []struct {
		name string
		p    Propagation
	}{{"monte-carlo", MonteCarlo}, {"gauss-hermite", GaussHermite}} {
		for _, sizes := range [][]int{{30, 10}, {30, 14, 8}} {
			for _, scen := range []string{"fit", "appended", "truncated", "low-rank"} {
				name := fmt.Sprintf("%s/K=%d/%s", prop.name, len(sizes), scen)
				t.Run(name, func(t *testing.T) {
					X, y := chainSet(int64(len(sizes)), sizes, d)
					// Hold back rows of every fused level for the appends.
					const extra = 12
					Xfit, yfit := make([][][]float64, len(X)), make([][]float64, len(X))
					for k := range X {
						n := len(X[k])
						if k > 0 && scen != "fit" {
							n -= n / 2
						}
						Xfit[k], yfit[k] = X[k][:n], y[k][:n]
					}
					cfg := MultiLevelConfig{MaxIter: 20, Propagation: prop.p, NumSamples: 12}
					if scen == "low-rank" {
						cfg.Inducing = 3
					}
					m, err := FitMultiLevel(Xfit, yfit, cfg, rand.New(rand.NewSource(5)))
					if err != nil {
						t.Fatal(err)
					}
					pts := stats.LatinHypercube(rand.New(rand.NewSource(6)), make([]float64, d), []float64{1, 1, 1}, 4)
					checkChain(t, m, pts) // also sizes the pooled scratch
					if scen == "fit" {
						return
					}
					top := len(X) - 1
					before := m.Level(top).TrainingSize()
					// Grow every fused level past the rows its pooled
					// scratch was sized for, then predict again.
					for k := 1; k <= top; k++ {
						for i := len(Xfit[k]); i < len(X[k]); i++ {
							if err := m.AppendLevel(k, X[k][i], y[k][i]); err != nil {
								t.Fatal(err)
							}
						}
					}
					for i := 0; i < extra; i++ {
						x := X[top][i%len(X[top])]
						if err := m.AppendLevel(top, []float64{x[0] * 0.97, x[1], x[2]}, y[top][i%len(y[top])]); err != nil {
							t.Fatal(err)
						}
					}
					checkChain(t, m, pts)
					if scen == "truncated" {
						if err := m.TruncateLevel(top, before); err != nil {
							t.Fatal(err)
						}
						checkChain(t, m, pts)
					}
				})
			}
		}
	}
}

// TestPredictLevelConcurrent hammers one K=3 chain from many goroutines (run
// it under -race): each result must equal the serial one.
func TestPredictLevelConcurrent(t *testing.T) {
	X, y := chainSet(8, []int{30, 14, 8}, 3)
	m, err := FitMultiLevel(X, y, MultiLevelConfig{MaxIter: 20, NumSamples: 20}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	pts := stats.LatinHypercube(rand.New(rand.NewSource(10)), make([]float64, 3), []float64{1, 1, 1}, 40)
	type post struct{ mu, va float64 }
	want := make([]post, len(pts))
	for i, x := range pts {
		want[i].mu, want[i].va = m.PredictLevel(x, 2)
	}
	var wg sync.WaitGroup
	bad := make(chan int, len(pts))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < len(pts); c++ {
				i := (w*5 + c) % len(pts)
				if mu, va := m.PredictLevel(pts[i], 2); mu != want[i].mu || va != want[i].va {
					bad <- i
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(bad)
	for i := range bad {
		t.Fatalf("concurrent PredictLevel at point %d differs from the serial result", i)
	}
}
