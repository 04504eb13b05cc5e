package cosim

import (
	"testing"

	"mptwino/internal/noc"
)

// arrivalRecorder counts the messages delivered to each worker's tasks,
// independently of the tasks' own counters, before handing each delivery
// to the co-simulator's driver.
type arrivalRecorder struct {
	driverAdapter
	arrived [][]int // [worker][task]
}

func (r *arrivalRecorder) OnDeliver(n *noc.Network, m *noc.Message) {
	r.arrived[m.Dst][m.Tag&0xffff]++
	r.driverAdapter.OnDeliver(n, m)
}

// TestSchedulerStartsLowestReadyTask steps a two-layer (2,2)
// co-simulation cycle by cycle and checks the §VI-A update-counter
// scheduler against its definition after every cycle:
//   - a task starts only once every local dependency has finished and
//     every message it waits for has arrived;
//   - no two tasks of one worker overlap, and each occupies its worker
//     for its duration (one cycle at least);
//   - a worker is never idle while it has a ready task, and of several
//     ready tasks it starts the lowest-index one.
//
// The stepped run must also end on the cycle Run reports.
func TestSchedulerStartsLowestReadyTask(t *testing.T) {
	spec := smallSpec()
	spec.Ng, spec.Nc = 2, 2
	spec.Extra = append(spec.Extra, spec.P)
	const maxCycles = 50_000_000

	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := &arrivalRecorder{driverAdapter: driverAdapter{c}, arrived: make([][]int, len(c.workers))}
	startAt := make([][]int64, len(c.workers))
	finishAt := make([][]int64, len(c.workers))
	for wi, w := range c.workers {
		rec.arrived[wi] = make([]int, len(w.tasks))
		startAt[wi] = make([]int64, len(w.tasks))
		finishAt[wi] = make([]int64, len(w.tasks))
	}
	ready := func(w *worker, i int) bool {
		tk := w.tasks[i]
		if tk.started {
			return false
		}
		for _, d := range tk.deps {
			if !w.tasks[d].finished {
				return false
			}
		}
		return rec.arrived[w.id][i] >= tk.waitMsgs
	}

	var msgGated, choices int
	for !c.allDone() {
		if c.now >= maxCycles {
			t.Fatalf("exceeded %d cycles", maxCycles)
		}
		c.step(rec)
		for wi, w := range c.workers {
			running := 0
			for i, tk := range w.tasks {
				if tk.started && !tk.finished {
					running++
				}
				if tk.finished && finishAt[wi][i] == 0 {
					finishAt[wi][i] = c.now
					if got, want := c.now-startAt[wi][i], max(tk.cycles, 1); got != want {
						t.Fatalf("cycle %d: worker %d task %s ran %d cycles, want %d", c.now, wi, tk.name, got, want)
					}
				}
				if !tk.started || startAt[wi][i] != 0 {
					continue
				}
				// Task i started this cycle.
				startAt[wi][i] = c.now
				for _, d := range tk.deps {
					if !w.tasks[d].finished {
						t.Fatalf("cycle %d: worker %d started %s before its dependency %s finished",
							c.now, wi, tk.name, w.tasks[d].name)
					}
				}
				if got := rec.arrived[wi][i]; got < tk.waitMsgs {
					t.Fatalf("cycle %d: worker %d started %s after %d of its %d messages",
						c.now, wi, tk.name, got, tk.waitMsgs)
				}
				if tk.waitMsgs > 0 {
					msgGated++
				}
				for j := range w.tasks {
					if j < i && ready(w, j) {
						t.Fatalf("cycle %d: worker %d started %s while the lower-index %s was ready",
							c.now, wi, tk.name, w.tasks[j].name)
					}
					if j > i && ready(w, j) {
						choices++
					}
				}
			}
			if running > 1 {
				t.Fatalf("cycle %d: worker %d runs %d tasks at once", c.now, wi, running)
			}
			if running == 1 {
				continue
			}
			for i, tk := range w.tasks {
				if ready(w, i) {
					t.Fatalf("cycle %d: worker %d is idle while %s is ready", c.now, wi, tk.name)
				}
			}
		}
	}
	for wi, w := range c.workers {
		for i, tk := range w.tasks {
			if finishAt[wi][i] == 0 {
				t.Fatalf("worker %d task %s never finished", wi, tk.name)
			}
		}
	}
	if msgGated == 0 || choices == 0 {
		t.Fatalf("%d message-gated starts and %d starts with a higher-index task also ready: the checks saw no such case",
			msgGated, choices)
	}

	fresh, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fresh.Run(maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != c.now {
		t.Fatalf("stepped run ended at cycle %d, Run at %d", c.now, r.Cycles)
	}
	t.Logf("%d cycles; %d message-gated starts; %d times a higher-index task was ready too", c.now, msgGated, choices)
}
