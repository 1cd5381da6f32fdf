// Checkpoint encoding: the per-Tell cost of rendering a session snapshot,
// one-shot (Checkpoint.Marshal) and through the splice-memo encoder a
// core.StoreCheckpointer keeps for its session.

package bench

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/storage"
)

// discardStore accepts every Put and drops it; the benchmark measures the
// encoder, not a backend.
type discardStore struct{ storage.Store }

func (discardStore) Put(storage.Kind, string, []byte) error { return nil }

// powerampSnapshots builds, without running an engine, the snapshots a
// poweramp-shaped session takes: 5-D inputs, an objective and two
// constraints, one more observation per snapshot up to n, every third one at
// the high fidelity.
func powerampSnapshots(n int) []*core.Checkpoint {
	const dim, nOut = 5, 3
	rng := rand.New(rand.NewSource(1))
	row := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	var lowX, lowY, highX, highY [][]float64
	var hist []core.Observation
	warm := [][]float64{row(dim + 2), row(dim + 2), row(dim + 2)}
	cost := 0.0
	cks := make([]*core.Checkpoint, 0, n)
	for i := 0; i < n; i++ {
		x, y := row(dim), row(nOut)
		fid := problem.Low
		if i%3 == 2 {
			fid = problem.High
			highX, highY = append(highX, x), append(highY, y)
			cost++
		} else {
			lowX, lowY = append(lowX, x), append(lowY, y)
			cost += 0.1
		}
		hist = append(hist, core.Observation{
			Iter: i - 20, X: x, Fid: fid,
			Eval:    problem.Evaluation{Objective: y[0], Constraints: y[1:]},
			CumCost: cost,
		})
		cks = append(cks, &core.Checkpoint{
			Version: core.CheckpointVersion, Problem: "poweramp", Dim: dim, NumConstraints: nOut - 1,
			Budget: 40, Gamma: 0.1, InitLow: 20, InitHigh: 6, Iter: i, Cost: cost,
			NumLow: len(lowX), NumHigh: len(highX),
			LowX: lowX, LowY: lowY, HighX: highX, HighY: highY,
			WarmLow: warm, WarmHigh: warm, History: hist, Degradations: []core.Degradation{},
		})
	}
	return cks
}

// BenchmarkCheckpointEncode encodes a 60-snapshot poweramp-shaped session:
// oneshot re-encodes every snapshot from scratch, memo runs one
// StoreCheckpointer hook over the sequence. Reports ns per checkpoint.
func BenchmarkCheckpointEncode(b *testing.B) {
	cks := powerampSnapshots(60)
	perCheckpoint := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cks)), "ns/checkpoint")
	}
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ck := range cks {
				if _, err := ck.Marshal(); err != nil {
					b.Fatal(err)
				}
			}
		}
		perCheckpoint(b)
	})
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hook := core.StoreCheckpointer(discardStore{}, "bench")
			for _, ck := range cks {
				if err := hook(ck); err != nil {
					b.Fatal(err)
				}
			}
		}
		perCheckpoint(b)
	})
}
