// Package parallel is the host-side parallel execution engine: bounded
// fan-outs that spread independent work items across goroutines while
// keeping results deterministically ordered by item index. It is the
// substrate under the sim sweep fan-out, the planner's search, the
// tile-batched Winograd/conv kernels and the mpt engine's phased passes
// (DESIGN.md §7).
//
// Determinism contract: Map/ForEach write each item's result to its own
// index slot, and every caller folds those slots in index order, so the
// outcome is bit-identical for any worker count — goroutines only change
// wall-clock time, never results. A panic in an item re-raises on the
// calling goroutine (lowest item index wins).
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable that overrides the default
// worker count (useful for benchmarking the sequential path: set it to 1).
const EnvWorkers = "MPTWINO_WORKERS"

var defaultWorkers atomic.Int64

func init() { defaultWorkers.Store(int64(envDefault())) }

func envDefault() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultWorkers returns the process-wide default pool size: the
// MPTWINO_WORKERS environment variable if set, otherwise GOMAXPROCS.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// SetDefaultWorkers overrides the process-wide default (n <= 0 restores
// the environment/GOMAXPROCS default) and returns the previous value.
// Tests use it to pin worker counts for determinism sweeps.
func SetDefaultWorkers(n int) int {
	prev := int(defaultWorkers.Load())
	if n <= 0 {
		n = envDefault()
	}
	defaultWorkers.Store(int64(n))
	return prev
}

// Workers resolves a requested worker count against an item count:
// requested <= 0 means DefaultWorkers, and the pool never exceeds the
// number of items (spawning idle goroutines helps nothing).
func Workers(requested, items int) int {
	w := requested
	if w <= 0 {
		w = DefaultWorkers()
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// panicBox records the first (lowest-index) panic raised by a work item so
// the caller can re-raise it after the pool drains.
type panicBox struct {
	mu  sync.Mutex
	idx int
	val any
	set bool
}

func (p *panicBox) record(idx int, val any) {
	p.mu.Lock()
	if !p.set || idx < p.idx {
		p.idx, p.val, p.set = idx, val, true
	}
	p.mu.Unlock()
}

func (p *panicBox) rethrow() {
	if p.set {
		panic(p.val)
	}
}

// ForEach runs fn(i) for every i in [0, n) on at most `workers`
// goroutines (see Workers for the <=0 convention). It returns when all
// items finish. A panic in fn is re-raised on the caller after the other
// workers drain.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	(&fanout{each: fn, n: n}).run(w)
}

// ForEachWorker is ForEach with the worker's pool index passed alongside
// the item index, so callers can hand each goroutine its own scratch slot
// (packing buffers, staging tiles) without allocation or locking. worker is
// in [0, Workers(workers, n)); the single-worker path always passes 0. The
// determinism contract is unchanged — worker identity may only steer
// scratch reuse, never results.
func ForEachWorker(workers, n int, fn func(worker, item int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	(&fanout{byWorker: fn, n: n}).run(w)
}

// fanout is one multi-worker ForEach or ForEachWorker call's shared state:
// exactly one of each and byWorker is set. The call starts one goroutine
// per worker, each claiming items from next until none is left, and the
// caller waits for them. The caller does not serve as a worker itself:
// when it did, the planner's fan-outs left the collector's mark phases
// running 4–6 ms of wall time for 0.2 ms of marking, and autoplan's peak
// RSS doubled (DESIGN.md §7).
type fanout struct {
	each     func(i int)
	byWorker func(worker, item int)
	n        int

	next atomic.Int64 // the next unclaimed item
	wg   sync.WaitGroup
	pb   panicBox
}

// run starts w worker goroutines, waits until every item has run, and
// re-raises the lowest-index panic.
func (f *fanout) run(w int) {
	f.wg.Add(w)
	for g := 0; g < w; g++ {
		go f.serve(g)
	}
	f.wg.Wait()
	f.pb.rethrow()
}

// serve is worker w's goroutine: it runs items until none is left.
func (f *fanout) serve(w int) {
	defer f.wg.Done()
	for {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		f.item(w, i)
	}
}

// item runs one item, recording a panic instead of unwinding the worker.
func (f *fanout) item(w, i int) {
	defer func() {
		if r := recover(); r != nil {
			f.pb.record(i, r)
		}
	}()
	if f.each != nil {
		f.each(i)
	} else {
		f.byWorker(w, i)
	}
}

// Map runs fn(i) for every i in [0, n) on at most `workers` goroutines
// and returns the results ordered by index — the deterministic fan-out
// primitive under the sim sweeps.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
