package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/problem"
	"repro/internal/testfunc"
)

// fuzzBudget is the budget of the seed snapshots; a mutated snapshot only
// reaches RestoreEngine's data handling while its Budget still matches.
const fuzzBudget = 6.0

// adaptiveSnapshot runs p to completion and returns the Marshal bytes of the
// first snapshot taken in the adaptive phase, so that an Ask on the restored
// engine fits the surrogates and proposes.
func adaptiveSnapshot(f *testing.F, p problem.Problem, cfg Config) []byte {
	f.Helper()
	var first *Checkpoint
	cfg.Checkpointer = func(ck *Checkpoint) error {
		if first == nil && ck.Iter > 0 {
			first = ck
		}
		return nil
	}
	if _, err := Optimize(p, cfg, rand.New(rand.NewSource(3))); err != nil {
		f.Fatal(err)
	}
	if first == nil {
		f.Fatalf("%s: no adaptive-phase snapshot", p.Name())
	}
	data, err := first.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzRestoreCheckpoint feeds arbitrary bytes through the resume path:
// UnmarshalCheckpoint, RestoreEngine, then one Ask, on a two-rung and a
// three-rung problem. A snapshot is either refused with an error or restored
// into an engine whose next Ask returns; neither step may panic.
func FuzzRestoreCheckpoint(f *testing.F) {
	f.Add(adaptiveSnapshot(f, testfunc.Forrester(), fastCfg(fuzzBudget)))
	f.Add(adaptiveSnapshot(f, testfunc.Forrester3(), ladderCfg(fuzzBudget)))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		for _, tc := range []struct {
			p   problem.Problem
			cfg Config
		}{
			{testfunc.Forrester(), fastCfg(fuzzBudget)},
			{testfunc.Forrester3(), ladderCfg(fuzzBudget)},
		} {
			eng, err := RestoreEngine(tc.p, tc.cfg, rand.New(rand.NewSource(1)), ck)
			if err != nil {
				continue
			}
			// Any error is an acceptable outcome; only a panic fails.
			_, _ = eng.Ask(context.Background())
		}
	})
}

// FuzzCheckpointMarshal pins the checkpoint encoder to its oracle on any
// snapshot UnmarshalCheckpoint accepts: Marshal equals json.MarshalIndent
// byte for byte (or both fail), and one memo encoder fed the snapshot with
// its lists truncated, then the full snapshot, matches the oracle each time.
func FuzzCheckpointMarshal(f *testing.F) {
	f.Add(adaptiveSnapshot(f, testfunc.Forrester(), fastCfg(fuzzBudget)))
	f.Add(adaptiveSnapshot(f, testfunc.Forrester3(), ladderCfg(fuzzBudget)))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		enc := &ckEncoder{memo: true}
		checkEncode(t, enc, truncatedLists(ck), "truncated")
		checkEncode(t, enc, ck, "full")
	})
}

// truncatedLists returns a shallow copy of ck whose memoized lists keep only
// their first half.
func truncatedLists(ck *Checkpoint) *Checkpoint {
	half := func(m [][]float64) [][]float64 { return m[:len(m)/2] }
	tr := *ck
	tr.LowX, tr.LowY, tr.HighX, tr.HighY = half(ck.LowX), half(ck.LowY), half(ck.HighX), half(ck.HighY)
	tr.History = ck.History[:len(ck.History)/2]
	tr.MidX, tr.MidY = nil, nil
	for _, m := range ck.MidX {
		tr.MidX = append(tr.MidX, half(m))
	}
	for _, m := range ck.MidY {
		tr.MidY = append(tr.MidY, half(m))
	}
	return &tr
}
