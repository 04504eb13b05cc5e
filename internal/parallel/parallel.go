// Package parallel is the host-side parallel execution engine: bounded
// worker pools that fan independent work items out across goroutines while
// keeping results deterministically ordered by item index. It is the
// substrate under the sim sweep fan-out, the sharded NoC cycle loop, the
// tile-batched Winograd/conv kernels and the mpt engine's phased passes
// (DESIGN.md §7).
//
// Determinism contract: Map/ForEach write each item's result to its own
// index slot, and every caller folds those slots in index order, so the
// outcome is bit-identical for any worker count — goroutines only change
// wall-clock time, never results. Errors propagate errgroup-style (first
// error by lowest item index wins, remaining items are cancelled) and
// panics re-raise on the calling goroutine.
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
	countFanout(n)
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next int64 = -1
		wg   sync.WaitGroup
		pb   panicBox
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							pb.record(i, r)
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	pb.rethrow()
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
	countFanout(n)
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next int64 = -1
		wg   sync.WaitGroup
		pb   panicBox
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							pb.record(i, r)
						}
					}()
					fn(worker, i)
				}()
			}
		}(g)
	}
	wg.Wait()
	pb.rethrow()
}

// ForEachErr runs fn(i) for every i in [0, n) on at most `workers`
// goroutines with errgroup-style semantics: once any item errors, no new
// items start, and after the pool drains the error of the lowest index
// that failed is returned (deterministic regardless of schedule).
func ForEachErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	countFanout(n)
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    int64 = -1
		stopped atomic.Bool
		wg      sync.WaitGroup
		pb      panicBox
	)
	errs := make([]error, n)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							pb.record(i, r)
							stopped.Store(true)
						}
					}()
					if err := fn(i); err != nil {
						errs[i] = err
						stopped.Store(true)
					}
				}()
			}
		}()
	}
	wg.Wait()
	pb.rethrow()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// MapErr is Map with error propagation: on failure it returns a nil slice
// and the error of the lowest item index that failed.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachErr(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Shards partitions n items into at most `workers` contiguous [lo, hi)
// ranges of near-equal size — the static partitioning used where work
// must stay grouped (e.g. NoC links grouped by source router).
func Shards(n, workers int) [][2]int {
	w := Workers(workers, n)
	if n <= 0 {
		return nil
	}
	out := make([][2]int, 0, w)
	for s := 0; s < w; s++ {
		lo := s * n / w
		hi := (s + 1) * n / w
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}
