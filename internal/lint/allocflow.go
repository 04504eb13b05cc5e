package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// AllocFlow enforces the 0 allocs/op contract at the source level: a
// noalloc root (a *Into kernel or a //mptlint:noalloc-annotated function)
// in a linted package, and every call path reachable from it, must be
// allocation-free. benchdiff gates the same contract dynamically
// (`cmd/benchdiff -gate-allocs`, DESIGN.md §8); allocflow catches the
// allocation when it is written, not when a benchmark happens to run it.
//
// The root's own allocation constructs (make, new, append, slice and map
// literals, &T{...}, closures, goroutine spawns; callgraph.go) are
// reported where they are written. Allocations beneath a callee are found
// by walking the cross-package call graph and reported at the call site
// inside the root (the actionable frame: fix the callee, hoist the call
// off the steady-state path, or sanction the callee with evidence), with
// the chain that reaches them — the helper two hops away that a
// per-function AST walk can never see.
//
// Callees whose bodies are outside the program (stdlib, out-of-module)
// are not assumed clean: they must appear on the sanctioned-callee list
// below, so fmt.Sprintf or errors.New on a noalloc path is reported as a
// call. Dynamic calls (interface methods, function-valued
// parameters/fields) are likewise not analyzable and are reported,
// because an unseen callee is exactly how an allocation sneaks onto a
// steady-state path. Telemetry needs no rule of its own: the nil-safe
// atomic updates (Counter.Add, Gauge.Set, ...) walk clean, while a
// Registry lookup locks and allocates, so kernels resolve handles at
// attach time and only bump them in the loop.
//
// Two shapes contribute nothing, in roots and callees alike: cold paths
// (if-blocks terminating in panic — shape-check error paths) and the
// closure of a func literal passed directly to an internal/parallel
// primitive (one amortized allocation per kernel call; the literal's
// body is still walked, since it runs per item).
var AllocFlow = &Analyzer{
	Name: "allocflow",
	Doc: "flags allocations in a *Into or //mptlint:noalloc root and on every " +
		"call path from it (sanctioned-callee list for unanalyzable bodies)",
	RunProgram: runAllocFlow,
}

// sanctionedCallees maps call-graph keys (types.Func.FullName) to the
// evidence that the callee is allocation-free at steady state even though
// (or: why) allocflow does not descend into it. This list is the single
// place exemptions live — additions need a benchmark or contract
// citation, reviewed like any carve-out.
var sanctionedCallees = map[string]string{
	// The pool fan-out primitives: one amortized closure allocation per
	// kernel call on the multi-worker path; the single-worker branch the
	// 0-allocs benchmarks pin (SetDefaultWorkers(1)) is closure-free and
	// allocation-free (DESIGN.md §7/§8).
	"mptwino/internal/parallel.ForEach":       "amortized pool fan-out; 1-worker path is allocation-free",
	"mptwino/internal/parallel.ForEachWorker": "amortized pool fan-out; 1-worker path is allocation-free",

	// The phased fan-out under every mpt engine pass: one call per pass
	// whatever its phase and item counts (TestForEachPhaseAllocationsDoNotGrow,
	// which also pins its 1-worker path at 0 allocs); the engine's own
	// 1-worker branch never calls it, and TestTrainStepAllocationFree and
	// BenchmarkTrainStep read 0 allocs there.
	"mptwino/internal/parallel.ForEachPhase": "amortized pool fan-out, one per engine pass; 1-worker path is allocation-free",

	// Grow-only scratch: these allocate only while a buffer slot is still
	// smaller than the request, then replay the same storage forever. The
	// 0 allocs/op benchmarks (BenchmarkFpropInto etc., gated by benchdiff
	// -gate-allocs) pin that the steady state really is clean.
	"(*mptwino/internal/tensor.GemmScratch).panels": "grow-only packing buffers; steady-state calls reuse them",
	"(*mptwino/internal/tensor.Arena).Mat":          "replay arena, grow-only slots; steady state replays storage",
	"(*mptwino/internal/tensor.Arena).MatZ":         "replay arena, grow-only slots; steady state replays storage",
	"(*mptwino/internal/tensor.Arena).Floats":       "replay arena, grow-only slots; steady state replays storage",

	// Lazy grow-only staging of the training-loop Domains: their shapes
	// depend on the first call's batch size, so they cannot move to the
	// constructor; later calls at the same shape reuse the storage ("after
	// the first call at a given batch size, no allocations occur" is the
	// documented FpropInto contract). Note the per-worker Scratch used to
	// be on this list too — it is now built eagerly in NewLayer /
	// NewLayerWithWeights, which is the fix allocflow prescribes.
	"(*mptwino/internal/winograd.Layer).ensureDomain": "lazy grow-only domain staging; later calls at the same shape reuse it",

	// The convenience GEMM entry points amortize their scratch through a
	// sync.Pool; Get allocates only until the pool is warm.
	"(*sync.Pool).Get": "amortized scratch pool; warm steady-state hits are allocation-free",
	"(*sync.Pool).Put": "returns scratch to the pool; does not allocate",

	// The runtime-dispatched register-tile micro-kernel: a function-typed
	// field so the SSE2 or AVX2 tier can be selected per CPU at startup. The
	// candidates (gemm_amd64 tiers) are straight-line store loops; the
	// per-tier 0 allocs/op benchmarks cover each one.
	"(*mptwino/internal/tensor.gemmKernel).kern": "runtime-dispatched micro-kernel tier; all candidates are allocation-free store loops",

	// The runtime-dispatched schedule-row kernel under the Winograd tile
	// transforms and activation prediction (tensor.SchedRowInto): a
	// function-typed field like kern, nil on tiers that run the Go loop.
	// Its one candidate, schedRowAVX2 (gemm_amd64.s), is a bodyless
	// register loop that only stores into dst; TestTrainStepAllocationFree,
	// TestFpropReLUPredictionAllocFree and the 0 allocs/op benchmarks run
	// through it on the avx2 tier.
	"(*mptwino/internal/tensor.gemmKernel).row": "runtime-dispatched schedule-row kernel; its one candidate is an allocation-free AVX2 store loop",

	// The activation-prediction quantizer's lane kernel (lanes_amd64.s),
	// called directly from quantizeBlocks on the avx2 tier: a bodyless
	// register loop with a zero-size frame that only stores into qv, res
	// and ov. TestFpropReLUPredictionAllocFree,
	// TestTrainStepAllocationFree and BenchmarkPredictSteady (0 allocs/op)
	// run through it on that tier.
	"mptwino/internal/quant.quantizeLanesAVX2": "bodyless AVX2 quantizer lane kernel; a zero-frame store loop into caller buffers",
}

// sanctionedCalleePrefixes sanctions whole packages by key prefix: pure
// numeric stdlib and the lock-free atomics, none of which allocate.
var sanctionedCalleePrefixes = []string{
	"math.",
	"math/bits.",
	"sync/atomic.",
	"(*sync/atomic.",
}

func calleeSanctioned(key string) bool {
	if _, ok := sanctionedCallees[key]; ok {
		return true
	}
	for _, p := range sanctionedCalleePrefixes {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

// afProblem is one allocation (or analyzability hole) found beneath a
// callee: where it is, what it is, and the call chain that reaches it.
type afProblem struct {
	pos   token.Pos
	desc  string
	chain []string // short callee names from the traversed function down
}

// maxProblemsPerFunc caps how many problems one function contributes so a
// helper full of allocations reports a digest, not a flood.
const maxProblemsPerFunc = 4

func runAllocFlow(pass *ProgramPass) {
	sums := pass.Prog.callgraph()

	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	memo := map[string][]afProblem{}

	var visit func(key string) []afProblem
	visit = func(key string) []afProblem {
		if state[key] == done {
			return memo[key]
		}
		if state[key] == visiting {
			return nil // cycle: the first traversal owns the facts
		}
		state[key] = visiting
		s := sums[key]
		var probs []afProblem
		add := func(p afProblem) {
			if len(probs) < maxProblemsPerFunc {
				probs = append(probs, p)
			}
		}
		for _, a := range s.allocs {
			add(afProblem{a.pos, a.what + " allocates", nil})
		}
		for _, c := range s.calls {
			if c.callee != "" && calleeSanctioned(c.callee) {
				continue
			}
			if c.dynamic != "" {
				add(afProblem{c.pos, c.dynamic + " is not analyzable", nil})
				continue
			}
			t, ok := sums[c.callee]
			if !ok {
				add(afProblem{c.pos, fmt.Sprintf("calls %s, whose body is outside the program and not on the sanctioned list", displayKey(c.callee)), nil})
				continue
			}
			for _, sub := range visit(c.callee) {
				add(afProblem{sub.pos, sub.desc, append([]string{t.name}, sub.chain...)})
			}
		}
		state[key] = done
		memo[key] = probs
		return probs
	}

	// Deterministic traversal order: sorted summary keys, roots in target
	// packages only.
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := sums[k]
		if !s.root || !s.pkg.Target {
			continue
		}
		for _, a := range s.allocs {
			pass.Reportf(a.pos, "%s: %s allocates on a noalloc path; reuse caller-owned or scratch storage, or move it off the steady-state path", s.name, a.what)
		}
		reported := map[string]bool{} // one report per callee per root
		for _, c := range s.calls {
			if c.callee != "" && calleeSanctioned(c.callee) {
				continue
			}
			if c.dynamic != "" {
				pass.Reportf(c.pos, "%s: %s on a noalloc path; allocflow cannot prove it allocation-free — hoist it off the steady-state path or make the callee static", s.name, c.dynamic)
				continue
			}
			if reported[c.callee] {
				continue
			}
			t, ok := sums[c.callee]
			if !ok {
				reported[c.callee] = true
				pass.Reportf(c.pos, "%s: calls %s on a noalloc path; its body is outside the program and it is not on the sanctioned-callee list", s.name, displayKey(c.callee))
				continue
			}
			probs := visit(c.callee)
			if len(probs) == 0 {
				continue
			}
			reported[c.callee] = true
			for _, p := range probs {
				chain := append([]string{t.name}, p.chain...)
				pass.Reportf(c.pos, "%s: allocation reachable on a noalloc path via %s: %s at %s", s.name, strings.Join(chain, " → "), p.desc, shortPos(pass.Prog.Fset.Position(p.pos)))
			}
		}
	}
}

// displayKey strips the module prefix from a call-graph key for messages:
// "(*mptwino/internal/telemetry.Counter).Add" → "(*telemetry.Counter).Add".
func displayKey(key string) string {
	key = strings.ReplaceAll(key, "mptwino/internal/", "")
	return strings.ReplaceAll(key, "mptwino/", "")
}

// shortPos renders dir/file:line for a position inside the module.
func shortPos(p token.Position) string {
	dir, file := filepath.Split(p.Filename)
	return fmt.Sprintf("%s/%s:%d", filepath.Base(filepath.Clean(dir)), file, p.Line)
}
