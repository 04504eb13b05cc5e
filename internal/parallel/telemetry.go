package parallel

import (
	"sync/atomic"

	"mptwino/internal/telemetry"
)

// Telemetry hooks. The engine is below every instrumented package, so the
// handles live in package-level atomic pointers: Attach stores them
// race-safely, and the fan-out primitives bump whatever is attached (a nil
// handle drops the update — the zero-cost disabled path).
//
// Only worker-count-invariant quantities are counted: fan-out calls and
// item totals are the same whether the items run on one goroutine or
// eight, so the metrics snapshot stays bit-identical across
// MPTWINO_WORKERS settings — the same contract the result slots already
// obey. One caveat: these counters measure actual engine entries, and
// callers with a closure-free sequential fast path (the winograd Into
// kernels, see winograd/scratch.go) bypass the engine entirely at one
// worker — engine-usage counts are invariant per call site, not across
// call-site selection. Cross-worker-count byte-equality tests therefore
// cover the sim sweeps (which always enter the engine) and leave kernel
// engine usage as a diagnostic, not a model metric.
var (
	ctrCalls atomic.Pointer[telemetry.Counter] // ForEach-family and phased fan-outs
	ctrItems atomic.Pointer[telemetry.Counter] // total items fanned out
)

// Attach points the engine's instrumentation at reg's instruments:
//
//	parallel.calls fan-out invocations (ForEach/ForEachWorker/ForEachPhase/Map)
//	parallel.items total work items across those fan-outs (every phase's, for ForEachPhase)
//
// Attach(nil) detaches. Safe to call concurrently with running fan-outs.
func Attach(reg *telemetry.Registry) {
	ctrCalls.Store(reg.Counter("parallel.calls"))
	ctrItems.Store(reg.Counter("parallel.items"))
}

// countFanout records one fan-out of n items (no-op when detached).
func countFanout(n int) {
	ctrCalls.Load().Inc()
	ctrItems.Load().Add(int64(n))
}
