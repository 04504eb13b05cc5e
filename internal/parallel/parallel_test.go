package parallel

import (
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	cases := []struct {
		requested, items, want int
	}{
		{0, 100, DefaultWorkers()},
		{4, 2, 2},    // never more workers than items
		{4, 100, 4},  // explicit request honored
		{-3, 1, 1},   // negative → default, clamped to items
		{8, 0, 1},    // degenerate item count still yields a valid pool
		{1, 1000, 1}, // sequential request stays sequential
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.items); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.items, got, c.want)
		}
	}
}

func TestSetDefaultWorkersRoundTrip(t *testing.T) {
	orig := DefaultWorkers()
	prev := SetDefaultWorkers(3)
	if prev != orig {
		t.Fatalf("SetDefaultWorkers returned %d, want previous %d", prev, orig)
	}
	if DefaultWorkers() != 3 {
		t.Fatalf("DefaultWorkers = %d after override, want 3", DefaultWorkers())
	}
	SetDefaultWorkers(0) // restore env/GOMAXPROCS default
	if DefaultWorkers() < 1 {
		t.Fatalf("restored default %d < 1", DefaultWorkers())
	}
	SetDefaultWorkers(orig)
}

func TestMapDeterministicOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		got := Map(workers, 1000, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachRunsEveryItemExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		counts := make([]int32, 500)
		ForEach(workers, len(counts), func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachWorkerRunsEveryItemWithValidWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		counts := make([]int32, 300)
		var badWorker atomic.Bool
		ForEachWorker(workers, len(counts), func(w, i int) {
			if w < 0 || w >= workers {
				badWorker.Store(true)
			}
			atomic.AddInt32(&counts[i], 1)
		})
		if badWorker.Load() {
			t.Fatalf("workers=%d: worker index out of range", workers)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachWorkerSingleWorkerInline(t *testing.T) {
	var order []int
	ForEachWorker(1, 4, func(w, i int) {
		if w != 0 {
			t.Fatalf("single-worker path passed worker %d", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker path out of order: %v", order)
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				if r := recover(); r != "kaboom" {
					t.Fatalf("workers=%d: recovered %v, want kaboom", workers, r)
				}
			}()
			ForEach(workers, 16, func(i int) {
				if i == 5 {
					panic("kaboom")
				}
			})
			t.Fatalf("workers=%d: ForEach returned without panicking", workers)
		}()
	}
}

// TestForEachAllocations bounds what one fan-out allocates, not counting
// the caller's closure: nothing on the one-worker path, and at two workers
// the per-call state plus each worker goroutine's start.
func TestForEachAllocations(t *testing.T) {
	var sink [8]atomic.Int64
	each := func(i int) { sink[0].Add(int64(i)) }
	byWorker := func(w, i int) { sink[w].Add(int64(i)) }
	for _, c := range []struct {
		workers int
		most    float64
	}{{1, 0}, {2, 3}} {
		if a := testing.AllocsPerRun(100, func() { ForEach(c.workers, 8, each) }); a > c.most {
			t.Errorf("workers=%d: ForEach allocates %v times per call, want at most %v", c.workers, a, c.most)
		}
		if a := testing.AllocsPerRun(100, func() { ForEachWorker(c.workers, 8, byWorker) }); a > c.most {
			t.Errorf("workers=%d: ForEachWorker allocates %v times per call, want at most %v", c.workers, a, c.most)
		}
	}
}

// TestForEachWorkerIndexIsExclusive is the misuse regression the
// allocation-free per-worker scratch design leans on: ForEachWorker's
// contract is that a worker index is never handed to two goroutines at the
// same time, so per-worker scratch (GEMM panels, staging tiles) needs no
// locking. Each item flips its worker's busy flag on entry and clears it
// on exit; a CAS failure would mean two concurrent items observed the same
// pool index.
func TestForEachWorkerIndexIsExclusive(t *testing.T) {
	const workers, items = 8, 4096
	busy := make([]atomic.Int32, workers)
	var violations atomic.Int32
	ForEachWorker(workers, items, func(worker, item int) {
		if worker < 0 || worker >= workers {
			t.Errorf("worker index %d out of range [0,%d)", worker, workers)
		}
		if !busy[worker].CompareAndSwap(0, 1) {
			violations.Add(1)
		}
		// Hold the slot long enough for a duplicate index to collide.
		for spin := 0; spin < 100; spin++ {
			_ = spin
		}
		busy[worker].Store(0)
	})
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d items saw their worker index concurrently reused — per-worker scratch would race", n)
	}
}
