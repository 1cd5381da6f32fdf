// Incremental surrogate maintenance (Config.Incremental): a cache of the
// fitted per-output models that is extended in place with rank-1 factor
// updates when new observations arrive, instead of refitting from scratch on
// every proposal. Full hyperparameter refits still run on the RefitEvery
// schedule, when the training window slides, when a model's per-point NLML
// degrades past NLMLTrigger, or when an extension fails numerically.
package core

import (
	"errors"

	"repro/internal/gp"
	"repro/internal/mfgp"
	"repro/internal/telemetry"
)

// ladderCache holds the models served between full refits — every output's
// rung-0 GP and the chain stacked on it (nil for a low-only output) —
// together with the dataset coordinates they cover so extensions and
// retractions line up.
type ladderCache struct {
	chains []*mfgp.MultiLevel
	low    []*gp.Model

	lowStart int   // window start of the rung-0 training view at fit time
	counts   []int // rows folded per rung (rung 0 window-relative)

	// Per-point NLML of the rung-0 and target-level GPs at the last full
	// refit, for the early-refit degradation trigger.
	baseLow, baseTop []float64
}

var errCacheUnusable = errors.New("core: surrogate cache unusable")

// incrementalLadder serves one proposal's models: extend the cache with
// rank-1 updates when the schedule allows, otherwise fall back to a full
// fitLadder and rebuild the cache. skipped reports which path ran.
func (st *state) incrementalLadder(iter int, span *telemetry.Span) (chains []*mfgp.MultiLevel, low []*gp.Model, ok, skipped bool) {
	cfg := &st.cfg
	lowX, _ := st.ds(0).window(cfg.MaxLowData)
	start := len(st.ds(0).X) - len(lowX)
	if c := st.lcache; c != nil && st.sinceRefit+1 < cfg.RefitEvery && c.lowStart == start && !st.ladderNLMLDegraded(c) {
		if err := st.extendLadderCache(c); err == nil {
			st.sinceRefit++
			if st.met != nil {
				st.met.fitSkipped.Add(1)
			}
			return c.chains, c.low, true, true
		}
		// A failed extension (e.g. an indefinite downdate residue) poisons
		// the cache; fall through to a full refit.
	}
	st.lcache = nil
	st.sinceRefit = 0
	chains, low, ok = st.fitLadder(iter, true, span)
	if !ok {
		return nil, nil, false, false
	}
	target := st.ladder.Target()
	c := &ladderCache{
		chains:   chains,
		low:      low,
		lowStart: start,
		counts:   make([]int, target+1),
		baseLow:  make([]float64, st.nOut),
		baseTop:  make([]float64, st.nOut),
	}
	c.counts[0] = len(lowX)
	for r := 1; r <= target; r++ {
		c.counts[r] = len(st.ds(r).X)
	}
	for k := 0; k < st.nOut; k++ {
		c.baseLow[k] = perPointNLML(low[k])
		if chains[k] != nil {
			c.baseTop[k] = perPointNLML(chains[k].Level(target))
		}
	}
	st.lcache = c
	return chains, low, true, false
}

func perPointNLML(m *gp.Model) float64 {
	if n := m.TrainingSize(); n > 0 {
		return m.NLML() / float64(n)
	}
	return 0
}

// ladderNLMLDegraded reports whether any cached model's per-point NLML has
// drifted more than NLMLTrigger nats above its last-full-refit baseline, at
// either end of an output's chain — the early warning that frozen
// hyperparameters no longer explain the data.
func (st *state) ladderNLMLDegraded(c *ladderCache) bool {
	trig := st.cfg.NLMLTrigger
	if trig < 0 {
		return false
	}
	target := st.ladder.Target()
	for k := 0; k < st.nOut; k++ {
		if perPointNLML(c.low[k]) > c.baseLow[k]+trig {
			return true
		}
		if c.chains[k] != nil && perPointNLML(c.chains[k].Level(target)) > c.baseTop[k]+trig {
			return true
		}
	}
	return false
}

// extendLadderCache folds every rung's unseen rows — real observations and
// fantasy rows alike — into the cached models with rank-1 updates (O(n²) per
// row), cheapest rung first so lower-level updates inform the frozen
// augmentations of subsequent higher-level rows. Models whose rung received
// no new data are left untouched. A row above rung 0 for a low-only output
// makes the cache unusable: it has no chain to absorb it. On error the
// caller must discard the cache: some models may already hold the new rows.
func (st *state) extendLadderCache(c *ladderCache) error {
	cfg := &st.cfg
	target := st.ladder.Target()
	updates := 0
	lowX, lowView := st.ds(0).window(cfg.MaxLowData)
	for i := c.counts[0]; i < len(lowX); i++ {
		for k := 0; k < st.nOut; k++ {
			if err := c.low[k].AppendObservation(lowX[i], lowView.Y[i][k]); err != nil {
				return err
			}
			updates++
		}
		c.counts[0] = i + 1
	}
	for r := 1; r <= target; r++ {
		ds := st.ds(r)
		for i := c.counts[r]; i < len(ds.X); i++ {
			for k := 0; k < st.nOut; k++ {
				if c.chains[k] == nil {
					return errCacheUnusable
				}
				if err := c.chains[k].AppendLevel(r, ds.X[i], ds.Y[i][k]); err != nil {
					return err
				}
				updates++
			}
			c.counts[r] = i + 1
		}
	}
	if updates > 0 {
		if st.met != nil {
			st.met.rank1Updates.Add(uint64(updates))
		}
		if ev := st.ev; ev != nil {
			ev.Rank1Updates += updates
		}
	}
	return nil
}

// retractLadderCache truncates the cached models back to the committed
// per-rung dataset sizes (rung-ordered, as datasetSizes) after a batch
// proposal retracted its fantasy rows. Any mismatch the truncation cannot
// reconcile poisons the cache so the next proposal refits.
func (st *state) retractLadderCache(sizes []int) {
	c := st.lcache
	if c == nil {
		return
	}
	target := st.ladder.Target()
	want := append([]int{sizes[0] - c.lowStart}, sizes[1:]...)
	for r, n := range want {
		if n < 1 || n > c.counts[r] {
			st.lcache = nil
			return
		}
	}
	for r := 0; r <= target; r++ {
		n := want[r]
		if n == c.counts[r] {
			continue
		}
		for k := 0; k < st.nOut; k++ {
			var err error
			switch {
			case r == 0:
				err = c.low[k].Truncate(n)
			case c.chains[k] != nil:
				err = c.chains[k].TruncateLevel(r, n)
			}
			if err != nil {
				st.lcache = nil
				return
			}
		}
		c.counts[r] = n
	}
}
