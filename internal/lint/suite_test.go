package lint_test

import (
	"testing"

	"mptwino/internal/lint"
	"mptwino/internal/lint/linttest"
)

// Each analyzer has a golden testdata package annotated with // want
// expectations (see linttest). The suites run the driver stack end to
// end: go list -export loading, type-checking, analysis, and //nolint
// suppression with the mandatory-reason rule.

func TestMapIter(t *testing.T) {
	linttest.Run(t, "testdata/src/mapiter", lint.MapIter)
}

// A float fold over map iteration order is a mapiter finding; its cases
// keep a suite of their own.
func TestFloatOrder(t *testing.T) {
	linttest.Run(t, "testdata/src/floatorder", lint.MapIter)
}

func TestNoGoroutine(t *testing.T) {
	linttest.Run(t, "testdata/src/nogoroutine", lint.NoGoroutine)
}

func TestNoTime(t *testing.T) {
	linttest.Run(t, "testdata/src/notime", lint.NoTime)
}

// The telemetry rule keys on the package name, so a testdata package
// declaring `package telemetry` exercises the real invariant: no time
// import at all in the cycle-domain tracing layer.
func TestNoTimeTelemetry(t *testing.T) {
	linttest.Run(t, "testdata/src/telemetrytime", lint.NoTime)
}

// The flow-sensitive tier: sharedwrite decides "partitioned by the
// worker/item index" with the dataflow engine (cfg.go), so the suite pins
// loop-carried offsets, reassignment, and the alias classification.
func TestSharedWrite(t *testing.T) {
	linttest.Run(t, "testdata/src/sharedwrite", lint.SharedWrite)
}

func TestDetSelect(t *testing.T) {
	linttest.Run(t, "testdata/src/detselect", lint.DetSelect)
}

// The allocflow fixture includes a subdirectory package (helpers/) so the
// suite pins cross-package call-graph traversal.
func TestAllocFlow(t *testing.T) {
	linttest.Run(t, "testdata/src/allocflow", lint.AllocFlow)
}

// A root's own allocation constructs are allocflow findings too, reported
// where they are written; the telemetry/ stand-in pins which instrument
// calls a kernel may make.
func TestNoAlloc(t *testing.T) {
	linttest.Run(t, "testdata/src/noalloc", lint.AllocFlow)
}

// The suppression layer is tested as its own suite: mandatory reasons,
// line+analyzer scoping, per-name stale detection.
func TestNolintStale(t *testing.T) {
	linttest.Run(t, "testdata/src/nolintstale", lint.MapIter, lint.NoTime)
}
