package main

import (
	"reflect"
	"testing"
)

func snapshot(benches map[string]Bench) *Snapshot {
	return &Snapshot{GemmKernel: "avx2", Benchmarks: benches}
}

// gates are diff's gating flags, defaulted as the CLI defaults them.
type gates struct {
	benchRe               string
	gateTimes, gateAllocs bool
}

func runDiff(base, snap *Snapshot, g gates) (failures, missing int) {
	if g.benchRe == "" {
		g.benchRe = "."
	}
	return diff(base, snap, g.benchRe, 1e-3, 4, g.gateTimes, g.gateAllocs)
}

// TestDiffMissingBenchmarks: a baseline benchmark absent from the run is
// missing, unless the run's -bench regex filtered it out.
func TestDiffMissingBenchmarks(t *testing.T) {
	base := snapshot(map[string]Bench{
		"Fig07CommScaling": {NsPerOp: 100},
		"TransformFused":   {NsPerOp: 100},
	})
	run := snapshot(map[string]Bench{"TransformFused": {NsPerOp: 100}})
	if f, m := runDiff(base, run, gates{}); f != 0 || m != 1 {
		t.Errorf("-bench .: %d failures, %d missing; want 0, 1", f, m)
	}
	if f, m := runDiff(base, run, gates{benchRe: "Transform"}); f != 0 || m != 0 {
		t.Errorf("-bench Transform: %d failures, %d missing; want 0, 0", f, m)
	}
}

// TestDiffModelMetrics: a model metric gates within -mtol (relative), and
// one the run no longer reports fails.
func TestDiffModelMetrics(t *testing.T) {
	base := snapshot(map[string]Bench{"Fig07": {NsPerOp: 100, Metrics: map[string]float64{"dp_MB": 5, "wmp_MB": 2}}})
	for _, tc := range []struct {
		name    string
		metrics map[string]float64
		want    int
	}{
		{"equal", map[string]float64{"dp_MB": 5, "wmp_MB": 2}, 0},
		{"within mtol", map[string]float64{"dp_MB": 5.004, "wmp_MB": 2}, 0},
		{"outside mtol", map[string]float64{"dp_MB": 5.01, "wmp_MB": 2}, 1},
		{"both outside", map[string]float64{"dp_MB": 4, "wmp_MB": 3}, 2},
		{"vanished", map[string]float64{"dp_MB": 5}, 1},
		{"added metric only", map[string]float64{"dp_MB": 5, "wmp_MB": 2, "new_MB": 1}, 0},
	} {
		run := snapshot(map[string]Bench{"Fig07": {NsPerOp: 100, Metrics: tc.metrics}})
		if f, m := runDiff(base, run, gates{}); f != tc.want || m != 0 {
			t.Errorf("%s: %d failures, %d missing; want %d, 0", tc.name, f, m, tc.want)
		}
	}
}

// TestDiffAllocGate: a 0-allocs/op baseline that now allocates fails under
// -gate-allocs, and only under it.
func TestDiffAllocGate(t *testing.T) {
	base := snapshot(map[string]Bench{"LayerFpropSteady": {NsPerOp: 100}})
	run := snapshot(map[string]Bench{"LayerFpropSteady": {NsPerOp: 100, AllocsPerOp: 3, BytesPerOp: 96}})
	if f, _ := runDiff(base, run, gates{gateAllocs: true}); f != 1 {
		t.Errorf("-gate-allocs: %d failures, want 1", f)
	}
	if f, _ := runDiff(base, run, gates{}); f != 0 {
		t.Errorf("-gate-allocs=false: %d failures, want 0", f)
	}
	if f, _ := runDiff(base, base, gates{gateAllocs: true}); f != 0 {
		t.Errorf("-gate-allocs on an unchanged run: %d failures, want 0", f)
	}
}

// TestDiffWallTimeGate: wall time past -tol, and allocations past -tol
// times a nonzero baseline, gate only with -gate-times.
func TestDiffWallTimeGate(t *testing.T) {
	base := snapshot(map[string]Bench{"TrainStep/alexnet": {NsPerOp: 100, AllocsPerOp: 2}})
	slow := snapshot(map[string]Bench{"TrainStep/alexnet": {NsPerOp: 1000, AllocsPerOp: 2}})
	allocs := snapshot(map[string]Bench{"TrainStep/alexnet": {NsPerOp: 100, AllocsPerOp: 20}})
	within := snapshot(map[string]Bench{"TrainStep/alexnet": {NsPerOp: 350, AllocsPerOp: 8}})
	for _, tc := range []struct {
		name      string
		run       *Snapshot
		gateTimes bool
		want      int
	}{
		{"slow, ungated", slow, false, 0},
		{"slow, gated", slow, true, 1},
		{"allocating, ungated", allocs, false, 0},
		{"allocating, gated", allocs, true, 1},
		{"within tol, gated", within, true, 0},
	} {
		if f, m := runDiff(base, tc.run, gates{gateTimes: tc.gateTimes, gateAllocs: true}); f != tc.want || m != 0 {
			t.Errorf("%s: %d failures, %d missing; want %d, 0", tc.name, f, m, tc.want)
		}
	}
}

// TestParseBenchLine: names lose the Benchmark prefix and the -GOMAXPROCS
// suffix; ns/op, B/op and allocs/op fill their fields, MB/s is dropped and
// every other unit is a model metric. Lines that are not benchmark results
// are rejected.
func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		name string
		want Bench
		ok   bool
	}{
		{
			"BenchmarkFig07CommScaling-8   1   123456 ns/op   5.2 dp_MB   1.5 wmpfull_speedup_x   64 B/op   3 allocs/op",
			"Fig07CommScaling",
			Bench{NsPerOp: 123456, BytesPerOp: 64, AllocsPerOp: 3, Metrics: map[string]float64{"dp_MB": 5.2, "wmpfull_speedup_x": 1.5}},
			true,
		},
		{
			"BenchmarkTrainStep/alexnet-2   1   96605694 ns/op   20.96 traffic_MB   0 B/op   0 allocs/op",
			"TrainStep/alexnet",
			Bench{NsPerOp: 96605694, Metrics: map[string]float64{"traffic_MB": 20.96}},
			true,
		},
		{
			"BenchmarkGemm-2   20   5000 ns/op   812.5 MB/s",
			"Gemm",
			Bench{NsPerOp: 5000},
			true,
		},
		{"ok  \tmptwino\t1.2s", "", Bench{}, false},
		{"BenchmarkGemm-2   20   fast ns/op", "", Bench{}, false},
		{"BenchmarkGemm-2   20", "", Bench{}, false},
	} {
		name, got, ok := parseBenchLine(tc.line)
		if ok != tc.ok || name != tc.name || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: parsed (%q, %+v, %v), want (%q, %+v, %v)", tc.line, name, got, ok, tc.name, tc.want, tc.ok)
		}
	}
}
