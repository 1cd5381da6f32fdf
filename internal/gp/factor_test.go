package gp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/linalg"
)

// kernelLog records, in order, the SetHyper and Profile calls on the clones
// of a recordingKernel — the training workspaces' kernels. A workspace takes
// a new profile only on an NLML memo miss, because RefreshProfile cannot
// refresh a profile of a kernel type it does not know.
type kernelLog struct {
	mu     sync.Mutex
	events []byte // 's' for SetHyper, 'p' for Profile
}

func (l *kernelLog) add(e byte) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// adoptionHit reports whether the NLML evaluation that follows the last
// workspace SetHyper — the winner's adoption — was a memo hit: no profile
// was taken after it.
func (l *kernelLog) adoptionHit() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.events) - 1; i >= 0; i-- {
		switch l.events[i] {
		case 'p':
			return false
		case 's':
			return true
		}
	}
	return false
}

// recordingKernel wraps a kernel and logs the calls on its clones. Every
// value comes from the wrapped kernel and its profiles, so a fit with it
// does the arithmetic of a fit with the wrapped kernel.
type recordingKernel struct {
	kernel.Kernel
	log   *kernelLog
	clone bool
}

func (k *recordingKernel) SetHyper(src []float64) int {
	if k.clone {
		k.log.add('s')
	}
	return k.Kernel.SetHyper(src)
}

func (k *recordingKernel) Profile() kernel.PairProfile {
	if k.clone {
		k.log.add('p')
	}
	return k.Kernel.Profile()
}

func (k *recordingKernel) Clone() kernel.Kernel {
	return &recordingKernel{Kernel: k.Kernel.Clone(), log: k.log, clone: true}
}

// referenceFactor builds the posterior of m's training set at m's
// hyperparameters as a one-shot fit does: a pairwise Kernel.Eval fill of
// K + σ_n²·I, NewCholesky, SolveVec and the NLML formula.
func referenceFactor(t *testing.T, m *Model) (*linalg.Cholesky, []float64, float64) {
	t.Helper()
	n := len(m.xs)
	K := linalg.NewMatrix(n, n)
	noise2 := math.Exp(2 * m.logNoise)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := m.kern.Eval(m.xs[i], m.xs[j])
			K.Set(i, j, v)
			K.Set(j, i, v)
		}
		K.Add(i, i, noise2)
	}
	chol, err := linalg.NewCholesky(K)
	if err != nil {
		t.Fatal(err)
	}
	alpha := chol.SolveVec(m.ys)
	nlml := 0.5*linalg.Dot(m.ys, alpha) + 0.5*chol.LogDet() + 0.5*float64(n)*math.Log(2*math.Pi)
	return chol, alpha, nlml
}

// TestFitFactorMatchesReference pins the factor, α and NLML a fitted model
// keeps against referenceFactor, bit for bit: the N×N block of L, its
// Jitter, every α entry and the NLML. It covers SE-ARD and NARGP with
// trained and fixed noise, and three kinds of fit: SkipTraining (factorize's
// row fill), a trained fit whose winning workspace last evaluated the winner
// (the adoption is a memo hit) and one whose workspace evaluated later
// starts after it (Workers=1, start 0 winning: a memo miss). The recording
// kernel confirms which memo branch each trained fit took.
func TestFitFactorMatchesReference(t *testing.T) {
	for _, kc := range []struct {
		name string
		kern func() kernel.Kernel
	}{
		{"se-ard", func() kernel.Kernel { return kernel.NewSEARD(3) }},
		{"nargp", func() kernel.Kernel { return kernel.NewNARGP(2) }},
	} {
		for _, fixed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fixed-noise=%v", kc.name, fixed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(3))
				X, y := incrTrainSet(rng, 24, 3)
				base := func(log *kernelLog) Config {
					cfg := Config{Kernel: &recordingKernel{Kernel: kc.kern(), log: log}, MaxIter: 30}
					if fixed {
						noise := 1e-3
						cfg.FixedNoise = &noise
					}
					return cfg
				}
				check := func(label string, m *Model) {
					t.Helper()
					chol, alpha, nlml := referenceFactor(t, m)
					n := len(m.xs)
					if m.chol.N != n || math.Float64bits(m.chol.Jitter) != math.Float64bits(chol.Jitter) {
						t.Fatalf("%s: factor N %d jitter %v, reference N %d jitter %v", label, m.chol.N, m.chol.Jitter, n, chol.Jitter)
					}
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							if a, b := m.chol.L.At(i, j), chol.L.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
								t.Fatalf("%s: L[%d,%d] %v, reference %v", label, i, j, a, b)
							}
						}
					}
					if !linalg.SameBits(m.alpha, alpha) {
						t.Fatalf("%s: α %v, reference %v", label, m.alpha, alpha)
					}
					if math.Float64bits(m.NLML()) != math.Float64bits(nlml) {
						t.Fatalf("%s: NLML %v, reference %v", label, m.NLML(), nlml)
					}
				}

				// Memo hit: two starts on one worker. Start 0 is warm-started
				// where the kernel is white noise and stays poor, so start 1,
				// the last one the workspace runs, wins.
				log := new(kernelLog)
				cfg := base(log)
				cfg.Restarts, cfg.Workers = 1, 1
				cfg.WarmStart = make([]float64, cfg.Kernel.NumHyper()+1)
				for j := range cfg.WarmStart {
					cfg.WarmStart[j] = -5
				}
				hit, err := Fit(X, y, cfg, rand.New(rand.NewSource(11)))
				if err != nil {
					t.Fatal(err)
				}
				if !log.adoptionHit() || hit.FitInfo().BestStart != 1 {
					t.Fatalf("memo-hit fit: adoption hit %v, best start %d; want a hit from start 1",
						log.adoptionHit(), hit.FitInfo().BestStart)
				}
				check("memo hit", hit)

				// Memo miss: the default start 0 wins, and the workspace then
				// runs start 1.
				log = new(kernelLog)
				cfg = base(log)
				cfg.Restarts, cfg.Workers = 1, 1
				miss, err := Fit(X, y, cfg, rand.New(rand.NewSource(2)))
				if err != nil {
					t.Fatal(err)
				}
				if log.adoptionHit() || miss.FitInfo().BestStart != 0 {
					t.Fatalf("memo-miss fit: adoption hit %v, best start %d; want a miss from start 0",
						log.adoptionHit(), miss.FitInfo().BestStart)
				}
				check("memo miss", miss)

				cfg = base(new(kernelLog))
				cfg.SkipTraining, cfg.WarmStart = true, hit.Hyper()
				skip, err := Fit(X, y, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				check("skip training", skip)
			})
		}
	}
}

// lowRankRef is the DTC state of lowRankState built with a direct
// Kernel.Eval for every kernel value, in lowRankState's operation order.
type lowRankRef struct {
	kern              kernel.Kernel
	zs                [][]float64
	cholMM, cholSigma *linalg.Cholesky
	b, w              []float64
	yy, noise2        float64
	n                 int
	pushes            [][]float64 // appended rows' cross-covariances, newest last
	pushY             []float64
}

func newLowRankRef(t *testing.T, m *Model) *lowRankRef {
	t.Helper()
	idx := inducingIndices(len(m.xs), m.cfg.Inducing)
	mi := len(idx)
	r := &lowRankRef{kern: m.kern, noise2: math.Exp(2 * m.logNoise), n: len(m.xs)}
	for _, j := range idx {
		r.zs = append(r.zs, m.xs[j])
	}
	kmm := linalg.NewMatrix(mi, mi)
	for i := 0; i < mi; i++ {
		for j := i; j < mi; j++ {
			v := r.kern.Eval(r.zs[i], r.zs[j])
			kmm.Set(i, j, v)
			kmm.Set(j, i, v)
		}
		kmm.Add(i, i, 1e-8)
	}
	var err error
	if r.cholMM, err = linalg.NewCholesky(kmm); err != nil {
		t.Fatal(err)
	}
	sigma := kmm.Clone()
	r.b = make([]float64, mi)
	inv := 1 / r.noise2
	for k, x := range m.xs {
		km := r.row(x)
		r.yy += m.ys[k] * m.ys[k]
		for i := 0; i < mi; i++ {
			r.b[i] += km[i] * m.ys[k]
			row := sigma.Data[i*mi : (i+1)*mi]
			s := inv * km[i]
			for j := 0; j < mi; j++ {
				row[j] += s * km[j]
			}
		}
	}
	if r.cholSigma, err = linalg.NewCholesky(sigma); err != nil {
		t.Fatal(err)
	}
	return r
}

// row returns k(z_i, x) for every inducing point.
func (r *lowRankRef) row(x []float64) []float64 {
	km := make([]float64, len(r.zs))
	for i, z := range r.zs {
		km[i] = r.kern.Eval(z, x)
	}
	return km
}

func (r *lowRankRef) scaled(km []float64) []float64 {
	u := make([]float64, len(km))
	s := 1 / math.Sqrt(r.noise2)
	for i, v := range km {
		u[i] = v * s
	}
	return u
}

func (r *lowRankRef) append(sx []float64, sy float64) {
	km := r.row(sx)
	r.cholSigma.RankOneUpdate(r.scaled(km))
	for i, v := range km {
		r.b[i] += v * sy
	}
	r.yy += sy * sy
	r.n++
	r.pushes = append(r.pushes, km)
	r.pushY = append(r.pushY, sy)
}

func (r *lowRankRef) pop(t *testing.T) {
	last := len(r.pushes) - 1
	km, y := r.pushes[last], r.pushY[last]
	r.pushes, r.pushY = r.pushes[:last], r.pushY[:last]
	if err := r.cholSigma.RankOneDowndate(r.scaled(km)); err != nil {
		t.Fatal(err)
	}
	for i, v := range km {
		r.b[i] -= v * y
	}
	r.yy -= y * y
	r.n--
}

// nlml refreshes the weights and returns the approximate NLML.
func (r *lowRankRef) nlml() float64 {
	r.w = r.cholSigma.SolveVec(r.b)
	inv := 1 / r.noise2
	quad := r.yy
	for i, wi := range r.w {
		r.w[i] = wi * inv
		quad -= r.b[i] * r.w[i]
	}
	quad *= inv
	logdet := float64(r.n)*math.Log(r.noise2) + r.cholSigma.LogDet() - r.cholMM.LogDet()
	return 0.5*quad + 0.5*logdet + 0.5*float64(r.n)*math.Log(2*math.Pi)
}

// predict is the DTC posterior at x (raw units); nlml must have run since
// the last change.
func (r *lowRankRef) predict(m *Model, x []float64) (mean, variance float64) {
	sx := m.toStdX(x)
	km := r.row(sx)
	mu := linalg.Dot(km, r.w)
	v := make([]float64, len(km))
	r.cholMM.ForwardSolveInto(km, v)
	va := r.kern.Eval(sx, sx) - linalg.Dot(v, v)
	r.cholSigma.ForwardSolveInto(km, v)
	va += linalg.Dot(v, v)
	if va < 0 {
		va = 0
	}
	return m.yMean + m.yStd*mu, va * m.yStd * m.yStd
}

// TestLowRankMatchesEvalReference pins the low-rank model bit for bit
// against lowRankRef on SE-ARD and NARGP with d ∈ {1, 3} design variables
// (NARGP's input adds the lower level's value):
// the NLML and the posterior at probe points after the fit, after each of
// three appends and after a truncate back to the fitted size.
func TestLowRankMatchesEvalReference(t *testing.T) {
	for _, d := range []int{1, 3} {
		for _, kc := range []struct {
			name string
			kern kernel.Kernel
		}{
			{"se-ard", kernel.NewSEARD(d)},
			{"nargp", kernel.NewNARGP(d)},
		} {
			t.Run(fmt.Sprintf("%s/d=%d", kc.name, d), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(23 + d)))
				const n = 40
				X, y := incrTrainSet(rng, n+3, kc.kern.Dim())
				probes, _ := incrTrainSet(rng, 4, kc.kern.Dim())
				m, err := Fit(X[:n], y[:n], Config{Kernel: kc.kern, Restarts: 1, MaxIter: 20, Inducing: 12}, rng)
				if err != nil {
					t.Fatal(err)
				}
				ref := newLowRankRef(t, m)
				check := func(label string) {
					t.Helper()
					if got, want := m.NLML(), ref.nlml(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: NLML %v, reference %v", label, got, want)
					}
					for _, p := range probes {
						mu, va := m.PredictLatent(p)
						rmu, rva := ref.predict(m, p)
						if math.Float64bits(mu) != math.Float64bits(rmu) || math.Float64bits(va) != math.Float64bits(rva) {
							t.Fatalf("%s: posterior at %v is (%v, %v), reference (%v, %v)", label, p, mu, va, rmu, rva)
						}
					}
				}
				check("fit")
				for i := n; i < n+3; i++ {
					if err := m.AppendObservation(X[i], y[i]); err != nil {
						t.Fatal(err)
					}
					ref.append(m.toStdX(X[i]), (y[i]-m.yMean)/m.yStd)
					check(fmt.Sprintf("append %d", i-n+1))
				}
				if err := m.Truncate(n); err != nil {
					t.Fatal(err)
				}
				for range 3 {
					ref.pop(t)
				}
				check("truncate")
			})
		}
	}
}

// TestLowRankScratchSizedToInducing fits a low-rank model at n=400 with
// m=48 inducing points and requires its posterior to equal lowRankRef bit
// for bit, and every pooled prediction scratch, the build's included, to
// hold m-long row buffers, not history-length ones.
func TestLowRankScratchSizedToInducing(t *testing.T) {
	const n, mi = 400, 48
	rng := rand.New(rand.NewSource(31))
	X, y := incrTrainSet(rng, n, 3)
	probes, _ := incrTrainSet(rng, 5, 3)
	m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(3), Restarts: 1, MaxIter: 15, Inducing: mi, Workers: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref := newLowRankRef(t, m)
	ref.nlml()
	for _, p := range probes {
		mu, va := m.PredictLatent(p)
		rmu, rva := ref.predict(m, p)
		if math.Float64bits(mu) != math.Float64bits(rmu) || math.Float64bits(va) != math.Float64bits(rva) {
			t.Fatalf("posterior at %v is (%v, %v), reference (%v, %v)", p, mu, va, rmu, rva)
		}
	}
	pooled := 0
	for sc, ok := m.predScratch.Get(); ok; sc, ok = m.predScratch.Get() {
		pooled++
		if len(sc.ks) != mi || len(sc.v) != mi {
			t.Fatalf("pooled scratch rows %d and %d, want the %d inducing points", len(sc.ks), len(sc.v), mi)
		}
	}
	if pooled == 0 {
		t.Fatal("no prediction scratch was pooled")
	}
}

// TestAppendTruncateAllocations guards the steady state of a fantasy cycle,
// one AppendObservation and the Truncate that retracts it: on an exact model
// the only allocation is the stored standardized row (the kernel row, the
// profile and the solves run on the model's pooled scratch); a low-rank
// model adds the row of cross-covariances its undo log keeps.
func TestAppendTruncateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 60
	X, y := incrTrainSet(rng, n+1, 3)
	for _, c := range []struct {
		name     string
		inducing int
		want     float64
	}{
		{"exact", 0, 1},
		{"low-rank", 16, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := Fit(X[:n], y[:n], Config{Kernel: kernel.NewSEARD(3), Restarts: 1, MaxIter: 20, Inducing: c.inducing}, rng)
			if err != nil {
				t.Fatal(err)
			}
			cycle := func() {
				if err := m.AppendObservation(X[n], y[n]); err != nil {
					t.Fatal(err)
				}
				if err := m.Truncate(n); err != nil {
					t.Fatal(err)
				}
			}
			cycle() // grows the factor, the training set and the scratch once
			if allocs := testing.AllocsPerRun(50, cycle); allocs != c.want {
				t.Fatalf("append+truncate allocated %v times per cycle, want %v", allocs, c.want)
			}
		})
	}
}
