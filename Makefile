GO ?= go

.PHONY: all build test doccheck race service-race trace-race cluster-race cube-race bench benchtab bench-service bench-cluster fuzz fuzz-soak bench-difftest chaos soak-faults bench-fault bench-cuts bench-sched bench-cube ledger-test ledger-check

all: build doccheck test ledger-test fuzz chaos cluster-race cube-race bench-cuts bench-sched bench-cube

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark ledger is a Go module of its own (cmd/ledger/go.mod), so the
# root test run never reaches its unit and smoke tests.
ledger-test:
	cd cmd/ledger && $(GO) test ./...

# Ledger regression gate (not part of all: about 45 minutes): five seeded
# runs of every workload, then a comparison against the committed baseline
# that fails on a median regression beyond the bounds in BENCHMARK.json.
ledger-check:
	bash cmd/ledger/bench.sh -runs 5 -out .bench_build/head.json
	bash cmd/ledger/bench.sh -compare cmd/ledger/baseline.json .bench_build/head.json

# Documentation bar: every exported identifier must carry a doc comment.
doccheck:
	$(GO) run ./cmd/doccheck .

# Race-detector pass over the concurrency-heavy packages: the persistent
# worker pool, the window-parallel exhaustive simulator built on it and the
# wavefront cut enumerator (strata kernel + scratch pooling).
race:
	$(GO) test -race ./internal/par/... ./internal/sim/... ./internal/cuts/...

# Race-detector pass over the service layer: the job queue/scheduler, the
# result cache and the HTTP daemon's end-to-end test.
service-race:
	$(GO) test -race ./internal/service/... ./cmd/cecd/...

# Race-detector pass over the cluster layer: the consistent-hash ring, the
# coordinator's dispatch/steal/requeue machinery, verdict federation, the
# SIGKILL recovery test and the rig-backed differential sweep that crashes
# workers mid-check.
cluster-race:
	$(GO) test -race ./internal/cluster/...
	$(GO) test -race -run 'TestClusterRig' ./internal/difftest/

# Race-detector pass over the tracing path: the recorder itself plus a
# traced end-to-end job through the daemon (per-worker kernel spans,
# histogram observers and the trace endpoint all under contention).
trace-race:
	$(GO) test -race ./internal/trace/...
	$(GO) test -race -run 'TestDaemonTracedJob|TestTraceMatchesPhaseStats' ./cmd/cecd/... ./internal/core/...

# Short race-enabled differential sweep: every backend cross-checked on
# 50 seeded random miters plus a replay of the checked-in reproducer
# corpus and the native fuzz seed corpora. Deterministic; any failure is
# a cross-backend disagreement or a broken counter-example contract.
fuzz:
	$(GO) test -race -run 'TestCorpusReplay|TestRunCleanOnDefaultRoster|Fuzz' ./internal/difftest/
	$(GO) run ./cmd/cecfuzz -seed 1 -n 50

# Long-form soak: a large seeded sweep with metamorphic re-checks and
# shrinking, then open-ended native fuzzing of the backend-agreement
# property (override FUZZTIME to go longer).
FUZZTIME ?= 30s
fuzz-soak:
	$(GO) run ./cmd/cecfuzz -seed 1 -n 2000 -shrink -timing
	$(GO) test -race -fuzz FuzzBackendAgreement -fuzztime $(FUZZTIME) ./internal/difftest/

# Differential smoke row for the bench report: agreement rate + per-backend
# timing into BENCH_difftest.json.
bench-difftest:
	$(GO) run ./cmd/benchtab -difftest

# Race-enabled chaos pass: injected worker panics, stalls and SAT blow-ups
# across every backend and miter family (never-wrong + reusable-pool
# contract), the watchdog accounting tests, the kernel panic-recovery
# tests, the service crash/requeue/cancel suite and the fault-armed
# corpus replay.
chaos:
	$(GO) test -race ./internal/fault/
	$(GO) test -race -run 'TestPhase|TestWorkBudget|TestGenerousBudgets|TestStallInjection|Panic' ./internal/core/ ./internal/par/
	$(GO) test -race -run 'RunnerCrash|CancelWhileQueued|CloseSettles|DegradedResults' ./internal/service/
	$(GO) test -race -run 'TestChaosCorpusReplay|TestFaultArmed|TestFaultSpec' ./internal/difftest/

# Long-form chaos soak: a large fault-armed differential sweep — every
# engine backend sabotaged with seeded panics, stalls and SAT blow-ups
# while the oracle cross-checks every verdict (override SOAK_N/SOAK_FAULTS
# to go bigger or meaner).
SOAK_N ?= 1000
SOAK_FAULTS ?= par.worker.panic:p=0.3;sim.round.stall:p=0.05,delay=2ms;satsweep.pair.oom:p=0.3
soak-faults:
	$(GO) run ./cmd/cecfuzz -seed 1 -n $(SOAK_N) -no-metamorphic -faults "$(SOAK_FAULTS)"

# Fault-layer overhead row (disabled vs armed-idle injector) into
# BENCH_fault.json.
bench-fault:
	$(GO) run ./cmd/benchtab -fault

bench:
	$(GO) test -bench 'BenchmarkExhaustiveCheckBatch|BenchmarkDeviceLaunch' -benchmem ./internal/par/ ./internal/sim/
	$(GO) test -bench 'BenchmarkCutsPass|BenchmarkEnumerateNode' -benchmem ./internal/cuts/

# Before/after comparison of the cut-enumeration kernels on every benchmark
# family (strata kernel vs the retained per-level reference), written to
# BENCH_cuts.json. A verdict disagreement between the two fails the run.
bench-cuts:
	$(GO) run ./cmd/benchtab -cuts

# Adaptive class scheduler vs each forced single prover on every benchmark
# family, with the hybrid flow as the verdict reference, written to
# BENCH_sched.json. Any verdict disagreement fails the run.
bench-sched:
	$(GO) run ./cmd/benchtab -sched

# Race-detector pass over the cube-and-conquer prover: the decomposition
# property tests, the hard-miter acceptance experiment and the chaos matrix
# rows that sabotage cube solves mid-flight.
cube-race:
	$(GO) test -race ./internal/cube/
	$(GO) test -race -run 'TestChaos' ./internal/fault/

# Hard-miter experiment: starved sim + conflict-budgeted SAT baselines vs
# the cube-and-conquer prover on Booth-vs-array multiplier miters, written
# to BENCH_cube.json. Every verdict is oracle-cross-checked; any
# contradiction, missing counter-example or absent demonstrator row fails
# the run.
bench-cube:
	$(GO) run ./cmd/benchtab -cube

# Replay a generated-miter workload through the service layer and write
# throughput + cache hit rate to BENCH_service.json.
bench-service:
	$(GO) run ./cmd/benchtab -service

# Drive the full job workload through a coordinator fronting three real
# worker processes (spawned via re-exec), cross-check every verdict against
# a single-node replay, SIGKILL a worker mid-flight, and write aggregate
# throughput + scaling vs BENCH_service.json to BENCH_cluster.json.
bench-cluster:
	$(GO) run ./cmd/benchtab -cluster

benchtab:
	$(GO) run ./cmd/benchtab -all
