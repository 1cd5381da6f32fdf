package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 100} {
		const n = 137
		counts := make([]int64, n)
		ForEach(workers, n, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	ran := 0
	ForEach(8, 0, func(int) { ran++ })
	if ran != 0 {
		t.Fatalf("n=0 ran %d tasks", ran)
	}
	ForEach(8, 1, func(i int) { ran += i + 1 })
	if ran != 1 {
		t.Fatalf("n=1 ran wrong task set: %d", ran)
	}
}

func TestForEachWorkerSlotBounds(t *testing.T) {
	const workers, n = 4, 64
	var bad int64
	ForEachWorker(workers, n, func(w, i int) {
		if w < 0 || w >= workers || i < 0 || i >= n {
			atomic.AddInt64(&bad, 1)
		}
	})
	if bad != 0 {
		t.Fatalf("%d tasks saw out-of-range worker slot or index", bad)
	}
}

func TestForEachDeterministicOutputs(t *testing.T) {
	// The canonical usage pattern: task i writes slot i from its own
	// stream. Any worker count must produce identical output.
	run := func(workers int) []float64 {
		const n = 50
		out := make([]float64, n)
		base := int64(12345)
		ForEach(workers, n, func(i int) {
			rng := rand.New(rand.NewSource(base + int64(i)))
			out[i] = rng.NormFloat64() + rng.Float64()
		})
		return out
	}
	want := run(1)
	for _, w := range []int{2, 3, 8} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %v, serial %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
			}()
			ForEach(workers, 16, func(i int) {
				if i == 7 {
					panic("task failure")
				}
			})
		}()
	}
}

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d", got)
	}
	if got := Workers(-3); got < 1 {
		t.Fatalf("Workers(-3) = %d", got)
	}
	t.Setenv(EnvWorkers, "6")
	if got := DefaultWorkers(); got != 6 {
		t.Fatalf("DefaultWorkers with %s=6 = %d", EnvWorkers, got)
	}
	t.Setenv(EnvWorkers, "bogus")
	if got := DefaultWorkers(); got < 1 {
		t.Fatalf("DefaultWorkers with bogus env = %d", got)
	}
}

// TestFreeListHandsOutEachValueOnce runs workers that take a value (or make
// a new one), hold it and return it: no value is ever held by two workers at
// once, and the list never grows past the number of workers.
func TestFreeListHandsOutEachValueOnce(t *testing.T) {
	var fl FreeList[*int64]
	if _, ok := fl.Get(); ok {
		t.Fatal("an empty list handed out a value")
	}
	const workers = 8
	var made atomic.Int64
	ForEach(workers, 2000, func(int) {
		v, ok := fl.Get()
		if !ok {
			v = new(int64)
			made.Add(1)
		}
		if atomic.AddInt64(v, 1) != 1 {
			t.Error("a value was handed to two holders at once")
		}
		atomic.AddInt64(v, -1)
		fl.Put(v)
	})
	if n := made.Load(); n > workers {
		t.Fatalf("%d values made for %d workers", n, workers)
	}
}
