// Package difftest is the differential and metamorphic fuzzing harness of
// the CEC engine zoo. The repo carries several independent deciders —
// every engine of the facade's engine table (simsweep.Engines), the
// simulation-sweeping core under several more configurations — and the
// paper's central claim is that they all return the same verdicts.
// This package generates seeded random miters (equivalent by construction,
// or mutated to be inequivalent with a known witness), runs every backend
// on each, and fails on:
//
//   - any verdict disagreement between two decided backends,
//   - any disagreement with the ground truth established at generation
//     time (a brute-force truth-table oracle for small circuits, or a
//     validated witness),
//   - any NotEquivalent verdict whose counter-example does not actually
//     distinguish the outputs when replayed through the simulator,
//   - any metamorphic violation: the verdict must be invariant under PI
//     permutation, structural re-hashing and resyn2 restructuring.
//
// Failing miters are shrunk by iterative cone removal to a minimal
// reproducer and written to a corpus directory in ASCII AIGER form; the
// checked-in corpus under testdata/difftest/corpus is replayed on every
// go test run, so past disagreements become permanent regressions.
//
// Everything is seed-driven and deterministic: the same seed produces the
// same cases, the same log bytes and the same corpus files.
package difftest

import (
	"time"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/core"
	"simsweep/internal/fault"
	"simsweep/internal/miter"
)

// token renders a verdict for the harness log ("EQ", "NEQ", "UND").
func token(o miter.Outcome) string {
	return [...]string{miter.Undecided: "UND", miter.Equivalent: "EQ", miter.NotEquivalent: "NEQ"}[o]
}

// BackendResult is one backend's answer on one miter. Undecided is legal
// for incomplete backends (the simulation engine on its own may exhaust its
// phases) and never counts as a disagreement.
type BackendResult struct {
	Verdict miter.Outcome
	// CEX is the miter-PI assignment the backend offered for a
	// NotEquivalent verdict. The harness replays it; a NEQ verdict with a
	// missing or non-distinguishing CEX is a contract violation.
	CEX     []bool
	Runtime time.Duration
	// Degraded marks an answer that survived injected (or real) internal
	// faults — the engine recovered and withdrew the affected work instead
	// of guessing. A degraded Undecided from a Degradable backend is
	// tolerated; a degraded decided verdict is cross-checked as strictly as
	// a healthy one.
	Degraded bool
}

// Backend is one decider under differential test. Check must be safe to
// call repeatedly and from the single fuzzing goroutine; the harness
// measures its runtime around the call.
type Backend struct {
	Name string
	// Complete marks backends that must always decide small miters;
	// an Undecided answer from a complete backend is reported as a
	// failure rather than silently tolerated.
	Complete bool
	// MaxPIs bounds the miter width the backend accepts (0: unbounded).
	// The truth-table oracle sets 16.
	MaxPIs int
	// Degradable marks a backend running under fault injection: a Complete
	// backend that answers Undecided with Degraded set is exercising its
	// graceful-degradation path, not violating its completeness contract.
	// Every other contract (agreement among decided backends, ground truth,
	// counter-example replay) still applies in full.
	Degradable bool
	Check      func(m *aig.AIG) BackendResult
}

// Applicable reports whether the backend can run on an m-wide miter.
func (b *Backend) Applicable(m *aig.AIG) bool {
	return b.MaxPIs == 0 || m.NumPIs() <= b.MaxPIs
}

// facadeBackend wraps a facade engine selection as a Backend. A non-empty
// faultSpec arms deterministic fault injection inside every check: a FRESH
// injector is parsed per call (hook counters like at= are consumed state,
// and per-check injectors keep every case identically faulted regardless
// of roster order), and the backend is marked Degradable.
func facadeBackend(name string, e simsweep.EngineInfo, workers int, seed int64, cfg *core.Config, faultSpec string) Backend {
	return Backend{
		Name:       name,
		Complete:   e.Complete,
		Degradable: faultSpec != "",
		Check: func(m *aig.AIG) BackendResult {
			opts := simsweep.Options{
				Engine:    e.Name,
				Workers:   workers,
				Seed:      seed,
				SimConfig: cfg,
			}
			if faultSpec != "" {
				// The spec was validated when the roster was built; a fresh
				// parse of a validated spec cannot fail.
				opts.Faults = fault.MustParse(faultSpec, seed)
			}
			r, err := simsweep.CheckMiter(m, opts)
			if err != nil {
				return BackendResult{}
			}
			return BackendResult{Verdict: r.Outcome, CEX: r.CEX, Degraded: r.Degraded}
		},
	}
}

// tightConfig is a deliberately starved engine configuration: tiny windows,
// a small round budget forcing multi-round exhaustive simulation, forced
// work slicing and few local phases. It exercises the windowing/round logic
// where simulation-vs-SAT disagreement bugs historically hide.
func tightConfig() *core.Config {
	return &core.Config{
		KP:             8,
		Kp:             4,
		Kg:             4,
		Kl:             4,
		C:              4,
		SimWords:       2,
		MemBudgetWords: 1 << 10,
		SimSliceWork:   64,
		MaxLocalPhases: 3,
	}
}

// tinyCutsConfig starves the cut generator: small cuts (K=4), only two
// priority cuts per node and a candidate budget of three force the strata
// kernel through its budget-pruning and tiny-capacity paths, where
// selection-order and dedup bugs would change which pairs get checked.
func tinyCutsConfig() *core.Config {
	c := core.DefaultConfig()
	c.Kl = 4
	c.C = 2
	c.CutBudget = 3
	return &c
}

// extConfig enables the §V adaptive flow: L-phase cut passes that proved
// nothing in the previous phase are skipped.
func extConfig() *core.Config {
	c := core.DefaultConfig()
	c.AdaptivePasses = true
	return &c
}

// DefaultBackends returns the full differential roster: the brute-force
// truth-table oracle (≤16 PIs), then every engine of the facade's engine
// table (simsweep.Engines) with its default options — unlimited conflicts,
// so the SAT-based engines are complete — and the simulation engine under
// three more configurations (a starved windowing configuration, the
// adaptive-passes configuration and a starved cut-enumeration
// configuration). The oracle and every engine the table marks Complete
// must decide the small circuits the harness generates; the sim-only
// backends may return Undecided, which the harness tolerates.
//
// workers bounds each backend's parallel device (0: all CPUs); seed drives
// the backends' internal random stimulus (independent of case generation).
func DefaultBackends(workers int, seed int64) []Backend {
	b, _ := DefaultBackendsWithFaults(workers, seed, "")
	return b
}

// DefaultBackendsWithFaults is DefaultBackends with deterministic fault
// injection armed inside every engine backend (the truth-table oracle stays
// clean: it is the harness's ground truth and must not degrade). spec uses
// the fault-injection grammar of simsweep.ParseFaults; "" disables injection
// and yields exactly DefaultBackends. Each backend check parses a fresh
// injector from the spec, so counter-based hooks (at=, limit=) reset per
// check and the run stays deterministic under any roster or case order.
//
// Under injection the engine backends are Degradable: a complete backend
// may answer a degraded Undecided. Everything else — agreement among
// decided backends, ground truth, counter-example replay — is enforced
// unchanged, which makes a fuzzing sweep under this roster the
// "never-wrong under chaos" soak test.
func DefaultBackendsWithFaults(workers int, seed int64, spec string) ([]Backend, error) {
	if spec != "" {
		if _, err := fault.Parse(spec, seed); err != nil {
			return nil, err
		}
	}
	roster := []Backend{
		{Name: "oracle", Complete: true, MaxPIs: OracleMaxPIs, Check: func(m *aig.AIG) BackendResult {
			v, cex := TruthTable(m)
			return BackendResult{Verdict: v, CEX: cex}
		}},
	}
	for _, e := range simsweep.Engines() {
		roster = append(roster, facadeBackend(string(e.Name), e, workers, seed, nil, spec))
		if e.Name == simsweep.EngineSim {
			roster = append(roster,
				facadeBackend("sim-tight", e, workers, seed, tightConfig(), spec),
				facadeBackend("sim-ext", e, workers, seed, extConfig(), spec),
				facadeBackend("sim-tiny-cuts", e, workers, seed, tinyCutsConfig(), spec))
		}
	}
	return roster, nil
}
