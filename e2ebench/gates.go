package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/problem"
)

// step is one observation of a trajectory, in a form shared by in-process
// engine histories and HTTP history replies.
type step struct {
	X       []float64
	Rung    int
	Eval    problem.Evaluation
	CumCost float64
}

func stepsOfCore(hist []core.Observation) []step {
	out := make([]step, len(hist))
	for i, h := range hist {
		out[i] = step{X: h.X, Rung: int(h.Fid), Eval: h.Eval, CumCost: h.CumCost}
	}
	return out
}

func stepsOfAPI(hist []api.HistoryObservation) []step {
	out := make([]step, len(hist))
	for i, h := range hist {
		out[i] = step{
			X:       h.X,
			Rung:    h.Fidelity,
			Eval:    problem.Evaluation{Objective: h.Objective, Constraints: h.Constraints, Failed: h.Failed},
			CumCost: h.CumCost,
		}
	}
	return out
}

// fingerprint hashes a trajectory with FNV-1a over the Float64bits of every
// coordinate, the rung and the objective of each step, in order. Two runs
// with equal fingerprints proposed bit-identical points at the same rungs
// and saw bit-identical objectives.
func fingerprint(steps []step) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range steps {
		for _, x := range s.X {
			put(math.Float64bits(x))
		}
		put(uint64(s.Rung))
		put(math.Float64bits(s.Eval.Objective))
	}
	return h.Sum64()
}

// costToTarget is the paper's cost metric for one run: the cumulative cost,
// in equivalent target-rung simulations, at the first feasible target-rung
// observation whose objective is at or below target; budget when the run
// never got there.
func costToTarget(steps []step, top int, target, budget float64) float64 {
	for _, s := range steps {
		if s.Rung == top && s.Eval.Feasible() && s.Eval.Objective <= target {
			return s.CumCost
		}
	}
	return budget
}
