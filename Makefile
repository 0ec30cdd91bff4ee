GO ?= go

.PHONY: all build vet test doccheck race service-race trace-race cluster-race bench benchtab fuzz fuzz-soak chaos soak-faults ledger-test ledger-check

all: build vet doccheck test ledger-test fuzz chaos race service-race trace-race cluster-race

build:
	$(GO) build ./...

# go vet over both modules: the root module and the benchmark ledger, which
# is a module of its own (cmd/ledger/go.mod) that ./... does not reach.
vet:
	$(GO) vet ./...
	cd cmd/ledger && $(GO) vet ./...

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

# Race-detector pass over the cluster layer: the coordinator's shared
# queue, dispatch and requeue machinery, its verdict index, the SIGKILL
# recovery test and the rig-backed differential sweep that crashes workers
# mid-check.
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

# Microbenchmarks: the worker pool and exhaustive simulator, the engine
# as the facade runs it (BenchmarkCheckMiterDatapath: a fresh engine per
# op, so what one check allocates shows; BenchmarkHybridControl: a fresh
# hybrid check of the vga-w7 control fabric per op, whose time hinges on
# the PO-level SAT attempt after P+G), the cut kernels —
# BenchmarkCutsPass (strata kernel) against BenchmarkCutsPassReference (the
# retained per-level reference) is the before/after measurement of the cut
# enumeration — and the SAT kernel: BenchmarkPOPass, the PO pass on an
# unreduced control-fabric miter, and BenchmarkEncodeMiter, the variables
# and clauses its CNF encoding takes.
# BenchmarkReadMiter is what a check does before the engine: parse two
# binary AIGER circuits and build their miter, all through the structural
# hash table.
bench:
	$(GO) test -bench 'BenchmarkExhaustiveCheckBatch|BenchmarkDeviceLaunch' -benchmem ./internal/par/ ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkCheckMiterDatapath' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkHybridControl|BenchmarkHybridWide' -benchmem .
	$(GO) test -bench 'BenchmarkCutsPass|BenchmarkEnumerateNode' -benchmem ./internal/cuts/
	$(GO) test -bench 'BenchmarkPOPass' -benchmem ./internal/satsweep/
	$(GO) test -run '^$$' -bench 'BenchmarkEncodeMiter' -benchmem ./internal/cnf/
	$(GO) test -run '^$$' -bench 'BenchmarkReadMiter' -benchmem ./internal/miter/

benchtab:
	$(GO) run ./cmd/benchtab -all
