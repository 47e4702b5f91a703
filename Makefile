# Convenience targets for the hetsched reproduction.

GO ?= go

.PHONY: all check build vet lint test test-short test-race examples bench bench-baseline bench-gate profile cover cover-check fuzz loc-delta reproduce serve loadtest sweep clean

all: check

# The default gate: compile, vet + staticcheck, full test suite, and the
# concurrency subsystem under the race detector.
check: build lint test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet always; staticcheck when installed (CI installs
# it, local builds are not forced to).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# Every package with a worker pool, parallel fan-out or shared memo runs
# under the race detector: the daemon's queue/shutdown paths and its
# command's signal-driven drain (which may win the race against
# ListenAndServe), the stats
# sketch behind its metrics, the parallel characterization engine and its
# disk cache, the stream sink's overlapped consumer, the sweep grid, the ensemble trainer and the ANN bag's memo,
# the online predictor ensemble, and the cluster's per-node simulation pool. The scenario package rides
# along so its generators' determinism contract holds under the detector,
# and the simulator package so its skip-vs-rescan differential test does.
# The root-package run pins the ensemble's worker-count-invariant
# determinism under the detector.
# RACE_FLAGS adds go test flags (CI passes -short).
RACE_FLAGS ?=

test-race:
	$(GO) test $(strip $(RACE_FLAGS) -race) ./internal/server/... ./internal/stats/... ./internal/characterize/... ./internal/vm/... ./internal/sweep/... ./internal/ann/... ./internal/cluster/... ./internal/predict/... ./internal/scenario/... ./internal/core/... ./cmd/hetschedd/...
	$(GO) test $(strip $(RACE_FLAGS) -race) -run 'TestEnsembleDeterminism' .

test-short:
	$(GO) test -short ./...

# Build and run every example program (stdout discarded); the first one
# that exits non-zero fails the target.
examples:
	@set -e; for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

# Regenerate every paper table/figure plus the ablations and extensions.
bench:
	$(GO) test -bench=. -benchmem .

# Snapshot the hot-path microbenchmarks (L1 access, the one-pass multi-config
# simulator vs per-config replay, characterization at 1-8 workers and on the
# stream and replay engines, structured trace recording for the replay
# engine, kernel execution, one proposed-system simulation, one optimal
# simulation under a stochastic fault plan, ANN forward pass and backprop
# step, one bag prediction cold and memoized, the cluster dispatcher's
# routing pass on 16 and 64 nodes, the daemon's warm batch serving path and
# a batch with two cold variants per request,
# one online-ensemble prediction and one completion's ensemble feedback
# cycle on a warmed fork) as committed JSON,
# for before/after comparison across PRs. bench-gate reruns the same list,
# so a row added to BENCH_RE or BENCH_PKGS lands in both targets.
BENCH_RE = BenchmarkL1Access|BenchmarkHierarchyAccess|BenchmarkMultiSim|BenchmarkReplayAllConfigs|BenchmarkCharacterizeWorkers|BenchmarkCharacterizeOneKernel|BenchmarkRecordTrace|BenchmarkKernelExecution|BenchmarkProposedSimulation|BenchmarkFaultedSimulation|BenchmarkForward|BenchmarkBackpropStep|BenchmarkClusterDispatch|BenchmarkServerScheduleWarm|BenchmarkServerScheduleBatchCold|BenchmarkEnsemblePredict|BenchmarkEnsembleFeedback|BenchmarkSizePredict
BENCH_PKGS = ./internal/cache/ ./internal/characterize/ ./internal/eembc/ ./internal/core/ ./internal/ann/ ./internal/cluster/ ./internal/server/ ./internal/predict/

bench-baseline:
	$(GO) test -run=NONE -bench='$(BENCH_RE)' \
		-benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson > BENCH_core.json
	@echo wrote BENCH_core.json

# The CI bench-regression gate: rerun the baseline suite, convert it with
# benchjson, and compare against the committed BENCH_core.json. The tolerance
# is generous because shared CI runners are noisy; a genuine regression on the
# characterization hot path overshoots it anyway. Tune with
# `make bench-gate BENCH_TOLERANCE=0.15`.
BENCH_TOLERANCE ?= 0.40

bench-gate:
	$(GO) test -run=NONE -bench='$(BENCH_RE)' \
		-benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson > bench-fresh.json
	$(GO) run ./cmd/benchjson -compare BENCH_core.json bench-fresh.json -tolerance $(BENCH_TOLERANCE)

# Reproducible profiling workflow for the characterization hot path: CPU and
# heap profiles from the fused-engine benchmark, ready for
# `go tool pprof cpu.out`. EXPERIMENTS.md documents reading them and the
# live-daemon variant (pprof on :6060 under hetschedbench load).
profile:
	$(GO) test -run=NONE -bench='BenchmarkCharacterizeOneKernel$$|BenchmarkCharacterizeWorkers' \
		-benchtime 200x -cpuprofile cpu.out -memprofile mem.out ./internal/characterize/
	@echo "wrote cpu.out and mem.out; inspect with: $(GO) tool pprof -top cpu.out"

# Full-suite coverage profile + per-function summary (coverage.out is an
# artifact, not a commit; CI uploads it).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Enforce the checked-in minimum total coverage (COVERAGE_FLOOR). Raise the
# floor when coverage durably improves; never lower it to merge.
cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, "", $$NF); print $$NF }'); \
	floor=$$(cat COVERAGE_FLOOR); \
	echo "total coverage $${total}% (floor $${floor}%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "FAIL: coverage $${total}% fell below the $${floor}% floor"; exit 1; }

# Short fuzz pass over the test tooling's cache-config parser and text
# assembler, and over raw ISA programs that Validate accepts (run on the VM);
# then the untrusted-input parsers: binary memory traces,
# characterization disk-cache entries (a miss or a consistent DB, never a
# panic), -faults plan specs, CSV traces, -predictor ensemble specs and
# -scenario workload specs; then the daemon's four schedule endpoints on the
# wire (2xx or 4xx JSON, never 5xx or panic). Each line runs its fuzzer alone (-run='^$$'); CI runs
# `make fuzz FUZZTIME=10s`. The disk-cache seed is a whole saved DB, so that
# line caps minimization, which would otherwise spend the budget shrinking
# the first new input.
FUZZTIME ?= 20s

fuzz:
	$(GO) test ./internal/cache -run='^$$' -fuzz FuzzParseConfig -fuzztime $(FUZZTIME)
	$(GO) test ./internal/isa -run='^$$' -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/isa -run='^$$' -fuzz FuzzProgram -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vm -run='^$$' -fuzz FuzzLoadTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/characterize -run='^$$' -fuzz FuzzLoadCached -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/fault -run='^$$' -fuzz FuzzParseSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run='^$$' -fuzz FuzzTraceFile -fuzztime $(FUZZTIME)
	$(GO) test . -run='^$$' -fuzz FuzzParsePredictorSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -run='^$$' -fuzz FuzzParseScenarioSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz FuzzScheduleEndpoints -fuzztime $(FUZZTIME)

# Net line delta of the Go files between BASE and the working tree (tracked
# and staged files), from git diff --numstat: one line for non-test Go, one
# for _test.go files, so code moved into tests shows on both sides.
# `make loc-delta BASE=origin/main`.
BASE ?= HEAD
loc-delta:
	@git diff --numstat $(BASE) -- '*.go' ':!*_test.go' | \
		awk '{ add += $$1; del += $$2 } END { printf "non-test Go lines vs $(BASE): +%d -%d (net %+d)\n", add, del, add - del }'
	@git diff --numstat $(BASE) -- '*_test.go' | \
		awk '{ add += $$1; del += $$2 } END { printf "test Go lines vs $(BASE): +%d -%d (net %+d)\n", add, del, add - del }'

# The paper's full evaluation (Figures 6 & 7 at 5000 arrivals).
reproduce:
	$(GO) run ./cmd/hmsim -arrivals 5000

# Run the scheduling daemon on the default ports (API :8080, pprof :6060).
serve:
	$(GO) run ./cmd/hetschedd

# Hammer an in-process daemon: 256 requests, 64 in flight, 4 workers.
loadtest:
	$(GO) run ./cmd/hetschedbench -requests 256 -concurrency 64 -workers 4

sweep:
	$(GO) run ./cmd/hmsweep -arrivals 1500 > sweep.csv
	@echo wrote sweep.csv

clean:
	$(GO) clean ./...
