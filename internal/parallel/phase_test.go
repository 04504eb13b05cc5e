package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// phaseShapes are item counts per phase: empty phases, phases narrower
// and wider than the pool, and one long phase between short ones.
var phaseShapes = [][]int{
	{1},
	{5, 0, 3},
	{8, 36, 8},
	{1, 100, 1, 2},
	{0, 0, 4},
}

// TestForEachPhaseRunsEveryItemOnceInPhaseOrder: every item of every
// phase runs exactly once; no item of phase p+1 starts before every item
// of phase p has returned; and each item's worker index lies in
// [0, Workers(workers, max n)) and is held by no other running item.
func TestForEachPhaseRunsEveryItemOnceInPhaseOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range phaseShapes {
			name := fmt.Sprintf("workers=%d/n=%v", workers, n)
			most := 0
			runs := make([][]atomic.Int32, len(n))
			done := make([]atomic.Int32, len(n))
			for p, k := range n {
				runs[p] = make([]atomic.Int32, k)
				most = max(most, k)
			}
			w := Workers(workers, most)
			busy := make([]atomic.Bool, w)
			var early, badWorker, shared atomic.Bool
			ForEachPhase(workers, n, func(p, worker, i int) {
				for q := 0; q < p; q++ {
					if int(done[q].Load()) != n[q] {
						early.Store(true)
					}
				}
				if worker < 0 || worker >= w {
					badWorker.Store(true)
				} else if !busy[worker].CompareAndSwap(false, true) {
					shared.Store(true)
				}
				runs[p][i].Add(1)
				// Uneven item lengths let the workers drift apart within a phase.
				time.Sleep(time.Duration(i%3) * 50 * time.Microsecond)
				if worker >= 0 && worker < w {
					busy[worker].Store(false)
				}
				done[p].Add(1)
			})
			if early.Load() {
				t.Errorf("%s: an item started before the previous phase finished", name)
			}
			if badWorker.Load() {
				t.Errorf("%s: worker index outside [0, %d)", name, w)
			}
			if shared.Load() {
				t.Errorf("%s: two running items held one worker index", name)
			}
			for p := range runs {
				for i := range runs[p] {
					if c := runs[p][i].Load(); c != 1 {
						t.Errorf("%s: phase %d item %d ran %d times", name, p, i, c)
					}
				}
			}
		}
	}
}

// TestForEachPhasePanicPropagates: a panic in an item is re-raised on the
// caller, lowest item index first, and the phases after it do not run.
func TestForEachPhasePanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var later atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			ForEachPhase(workers, []int{4, 16, 4}, func(p, _, i int) {
				switch {
				case p == 1 && (i == 3 || i == 9):
					panic(fmt.Sprintf("item %d", i))
				case p == 2:
					later.Add(1)
				}
			})
			return nil
		}()
		if got != "item 3" {
			t.Errorf("workers=%d: recovered %v, want the panic of item 3", workers, got)
		}
		if c := later.Load(); c != 0 {
			t.Errorf("workers=%d: %d items of the phase after the panic ran", workers, c)
		}
	}
}

// TestForEachPhaseNestedForEachWorker: an item may fan out on its own.
func TestForEachPhaseNestedForEachWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		sums := make([]atomic.Int64, 3)
		ForEachPhase(workers, []int{3, 5, 2}, func(p, _, i int) {
			ForEachWorker(workers, 10, func(_, j int) { sums[p].Add(int64(j)) })
		})
		for p, want := range []int64{3 * 45, 5 * 45, 2 * 45} {
			if got := sums[p].Load(); got != want {
				t.Errorf("workers=%d: phase %d nested sum %d, want %d", workers, p, got, want)
			}
		}
	}
}

// TestForEachPhaseAllocationsDoNotGrow: at a given pool size a call's
// allocations do not depend on how many items or phases it runs, and the
// one-worker path allocates nothing.
func TestForEachPhaseAllocationsDoNotGrow(t *testing.T) {
	var sink [8]atomic.Int64
	fn := func(_, w, i int) { sink[w].Add(int64(i)) }
	small, large := []int{8}, []int{64, 64, 64, 64, 64, 64} // both fill a pool of 8
	for _, workers := range []int{1, 2, 8} {
		a := testing.AllocsPerRun(20, func() { ForEachPhase(workers, small, fn) })
		b := testing.AllocsPerRun(20, func() { ForEachPhase(workers, large, fn) })
		if workers == 1 && (a != 0 || b != 0) {
			t.Errorf("workers=1: %v and %v allocations per call, want 0", a, b)
		}
		if b > a {
			t.Errorf("workers=%d: %v allocations per call with %v, %v with %v", workers, b, large, a, small)
		}
	}
}
