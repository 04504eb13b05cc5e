# Developer entry points. `make verify` is the gate every change must pass:
# it builds all packages, runs vet, runs the full test suite, and runs it
# again under the race detector (the parallel engine's determinism tests
# only prove anything when raced).

GO ?= go
STATICCHECK_VERSION ?= 2025.1

.PHONY: verify fmt-check build vet lint lint-ci test race fuzz bench bench-baseline benchdiff profile trace trace-report scenarios scenarios-smoke autoplan

verify: fmt-check build vet lint scenarios-smoke test race

# gofmt gate: fails listing the offending files (gofmt -l prints paths and
# exits 0, so the emptiness of its output is the check).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz passes over the numeric invariants: activation-predictor
# safety, the quantizer lane kernel's bit-identity with Quantize, blocked-
# GEMM bit-identity with the naive reference, and the schedule-row
# kernel's bit-identity with its Go loop on every tier.
fuzz:
	$(GO) test -fuzz=FuzzPredictorNeverUnderestimates -fuzztime=30s ./internal/quant/
	$(GO) test -fuzz=FuzzQuantizeLanesMatchesQuantize -fuzztime=30s ./internal/quant/
	$(GO) test -fuzz=FuzzBlockedGemmMatchesNaive -fuzztime=30s ./internal/tensor/
	$(GO) test -fuzz=FuzzSchedRowMatchesGoLoop -fuzztime=30s ./internal/tensor/

# mptlint: the repo's own invariant analyzers (determinism, bounded
# parallelism, zero-alloc kernels — DESIGN.md §9/§14). Fully offline: type
# information comes from `go list -export` build-cache data, so this runs
# on an air-gapped machine and is part of `make verify`. The -cache file
# keeps the go list metadata warm between runs (revalidated against file
# hashes and the build cache, so it is always safe to keep).
lint:
	$(GO) run ./cmd/mptlint -cache .mptlintcache/golist.json ./...

# Pinned staticcheck, fetched on demand (requires network, so it is a
# separate CI-only target: `make lint`/`make verify` must stay offline).
lint-ci: lint
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Run the full benchmark suite once, interactively.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x .

# Record bench/BENCH_baseline.json from the current tree (commit the result).
bench-baseline:
	$(GO) run ./cmd/benchdiff -update

# Snapshot the suite to bench/BENCH_<date>.json and gate the paper's model
# metrics plus the zero-alloc contracts against the committed baseline
# (see EXPERIMENTS.md for the policy).
benchdiff:
	$(GO) run ./cmd/benchdiff

# Deterministic cycle-domain telemetry walkthrough (DESIGN.md §10): sweep
# VGG-16 over every Table IV config plus a fault-recovery run, write the
# Chrome trace_event timeline to trace.json (open in chrome://tracing or
# https://ui.perfetto.dev), and dump the counter registry. Timestamps are
# simulated cycles, so the output is byte-identical at any -parallel value.
trace:
	$(GO) run ./cmd/mptsim -net vgg -config all -faults 17 -trace trace.json -metrics -force

# Trace-analysis walkthrough (DESIGN.md §15): execute the vgg16 autoplan
# under the tracer, then analyze it with mpttrace — critical path, overlap
# attribution, achieved-vs-bound ratios — as text on stdout plus a
# self-contained HTML timeline in trace_report.html. The text bytes match
# internal/traceview/testdata/report_vgg16_autoplan.txt (refresh with
# `go test ./internal/traceview -run Golden -update`); CI's trace-gate job
# diffs exactly that.
trace-report:
	$(GO) run ./cmd/mptsim -net vgg -autoplan -autoplan-out /dev/null \
		-trace trace_vgg16.json -metrics-json metrics_vgg16.json -force
	$(GO) run ./cmd/mpttrace report -metrics metrics_vgg16.json trace_vgg16.json
	$(GO) run ./cmd/mpttrace report -metrics metrics_vgg16.json -format html \
		-o trace_report.html trace_vgg16.json
	@echo "wrote trace_vgg16.json metrics_vgg16.json trace_report.html"

# Deterministic degraded-fleet scenario matrix (DESIGN.md §11): the pinned
# {fleet class × network} grid under w_mp++, as a TSV that is byte-identical
# at any -parallel value. CI diffs the emitted table against the committed
# golden (internal/scenario/testdata/scenarios_golden.tsv; refresh with
# `go test ./internal/scenario -update`) and uploads it as an artifact.
scenarios:
	$(GO) run ./cmd/mptsim -scenarios -scenarios-out scenarios.tsv
	@echo "wrote scenarios.tsv"

# Per-layer parallelization-strategy auto-search (DESIGN.md §12): emit the
# deterministic plan dumps for the planner workloads and diff them against
# the committed goldens (internal/planner/testdata; refresh with
# `go test ./internal/planner -run Golden -update`). CI runs the same
# commands in the autoplan job and uploads the dumps as artifacts.
autoplan:
	$(GO) run ./cmd/mptsim -net alexnet -autoplan -autoplan-out plan_alexnet.tsv
	$(GO) run ./cmd/mptsim -net vgg -autoplan -autoplan-out plan_vgg16.tsv
	$(GO) run ./cmd/mptsim -net alexnet -autoplan -config w_mp -autoplan-out plan_alexnet_wmp.tsv
	$(GO) run ./cmd/mptsim -net vgg -autoplan -allow-wide-tiles -autoplan-out plan_vgg16_wide.tsv
	diff -u internal/planner/testdata/plan_alexnet.tsv plan_alexnet.tsv
	diff -u internal/planner/testdata/plan_vgg16.tsv plan_vgg16.tsv
	diff -u internal/planner/testdata/plan_alexnet_wmp.tsv plan_alexnet_wmp.tsv
	diff -u internal/planner/testdata/plan_vgg16_wide.tsv plan_vgg16_wide.tsv
	@echo "wrote plan_alexnet.tsv plan_vgg16.tsv plan_alexnet_wmp.tsv plan_vgg16_wide.tsv (match committed goldens)"

# Fast smoke subset of the scenario-matrix golden — part of `make verify`
# (the full grid runs in the regular test suite and in the CI matrix job).
scenarios-smoke:
	$(GO) test -run 'TestMatrixSmokeGolden' ./internal/scenario/

# CPU + heap profiles. The first recipe profiles the timing simulator via
# mptsim's -cpuprofile/-memprofile flags; the second profiles the numeric
# hot paths (blocked GEMM + fused transforms) through the steady-state
# layer benchmarks; the third profiles the flit simulator on perfbench's
# noc-hybrid traffic (BenchmarkNoCHybrid: New plus Run on Hybrid(16,16)).
# Inspect with `go tool pprof <binary-or-blank> cpu.pprof`.
profile:
	$(GO) run ./cmd/mptsim -net wrn -config all -cpuprofile sim_cpu.pprof -memprofile sim_mem.pprof
	$(GO) test -run '^$$' -bench 'Gemm|LayerFprop|LayerBprop|LayerUpdateGrad' -benchtime 2s \
		-cpuprofile kernel_cpu.pprof -memprofile kernel_mem.pprof .
	$(GO) test -run '^$$' -bench 'NoCHybrid' -benchtime 3s -cpuprofile noc_cpu.pprof .
	@echo "profiles: sim_cpu.pprof sim_mem.pprof kernel_cpu.pprof kernel_mem.pprof noc_cpu.pprof"
