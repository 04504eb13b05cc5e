package parallel

import (
	"sync"
	"sync/atomic"
)

// ForEachPhase runs len(n) phases in order on one fan-out: phase p calls
// fn(p, worker, i) for every i in [0, n[p]), and a barrier separates the
// phases — no item of phase p+1 starts before every item of phase p has
// returned. The goroutines start once per call and serve every phase, so
// a pass made of dependent stages (per-shard transforms, then per-element
// products over every shard's rows, then per-shard inverse transforms)
// pays for one fan-out, not one per stage.
//
// The pool size is Workers(workers, the largest n[p]). worker is in
// [0, pool size) and is held by one running item at a time, so it may
// index per-worker scratch; the calling goroutine serves as worker 0, and
// the single-worker path runs every item on it in phase and item order.
// The determinism contract is ForEachWorker's: worker identity may steer
// scratch reuse, never results. A panic in an item is re-raised on the
// caller once its phase has drained (lowest item index wins); the phases
// after it do not run.
func ForEachPhase(workers int, n []int, fn func(phase, worker, item int)) {
	most := 0
	for _, k := range n {
		most = max(most, k)
	}
	if most == 0 {
		return
	}
	w := Workers(workers, most)
	if w == 1 {
		for p, k := range n {
			for i := 0; i < k; i++ {
				fn(p, 0, i)
			}
		}
		return
	}
	ph := &phaser{fn: fn, workers: w}
	ph.cond.L = &ph.mu
	ph.wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go ph.serve(g)
	}
	for p, k := range n {
		if k == 0 {
			continue
		}
		ph.start(p, k)
		ph.run(0, p, k)
		if ph.await() {
			break
		}
	}
	ph.stop()
	ph.wg.Wait()
	ph.pb.rethrow()
}

// phaser is one ForEachPhase call's shared state. The caller publishes
// each phase under mu and bumps gen; the helper goroutines wake on gen,
// claim items from next, and count themselves out of running, which the
// caller waits on before it publishes the next phase.
type phaser struct {
	fn      func(phase, worker, item int)
	workers int

	mu      sync.Mutex
	cond    sync.Cond // on mu; signals a new phase, the stop, and running reaching 0
	gen     int       // bumped by every start and by stop
	phase   int       // the phase being run
	items   int       // its item count
	running int       // workers that have not finished the phase
	stopped bool

	next atomic.Int64 // the phase's next unclaimed item
	wg   sync.WaitGroup
	pb   panicBox
}

// start publishes phase p of k items to every worker.
func (ph *phaser) start(p, k int) {
	ph.mu.Lock()
	ph.phase, ph.items, ph.running = p, k, ph.workers
	ph.next.Store(0)
	ph.gen++
	ph.mu.Unlock()
	ph.cond.Broadcast()
}

// run claims and runs phase p's items on worker w until none is left,
// then counts the worker out of the phase.
func (ph *phaser) run(w, p, k int) {
	for {
		i := int(ph.next.Add(1)) - 1
		if i >= k {
			break
		}
		ph.item(p, w, i)
	}
	ph.mu.Lock()
	ph.running--
	last := ph.running == 0
	ph.mu.Unlock()
	if last {
		ph.cond.Broadcast()
	}
}

// item runs one item, recording a panic instead of unwinding the worker.
func (ph *phaser) item(p, w, i int) {
	defer func() {
		if r := recover(); r != nil {
			ph.pb.record(i, r)
		}
	}()
	ph.fn(p, w, i)
}

// serve is helper worker w's loop: it runs each phase as the caller
// publishes it, until the caller stops the fan-out.
func (ph *phaser) serve(w int) {
	defer ph.wg.Done()
	seen := 0
	for {
		ph.mu.Lock()
		for ph.gen == seen {
			ph.cond.Wait()
		}
		seen = ph.gen
		stopped, p, k := ph.stopped, ph.phase, ph.items
		ph.mu.Unlock()
		if stopped {
			return
		}
		ph.run(w, p, k)
	}
}

// await blocks until every worker has finished the current phase and
// reports whether one of its items panicked.
func (ph *phaser) await() bool {
	ph.mu.Lock()
	for ph.running > 0 {
		ph.cond.Wait()
	}
	ph.mu.Unlock()
	ph.pb.mu.Lock()
	defer ph.pb.mu.Unlock()
	return ph.pb.set
}

// stop releases the helper goroutines.
func (ph *phaser) stop() {
	ph.mu.Lock()
	ph.stopped = true
	ph.gen++
	ph.mu.Unlock()
	ph.cond.Broadcast()
}
