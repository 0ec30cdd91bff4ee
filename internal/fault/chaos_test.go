// Chaos suite: every armed hook, on every backend, on every miter family,
// must leave the engine alive, never-wrong and reusable. The test matrix is
// the acceptance gate of the fault-injection layer:
//
//   - no injected fault crashes the process or hangs a check;
//   - a faulted check's verdict is the oracle's or Undecided — never the
//     opposite of the truth — and a NotEquivalent verdict always carries a
//     replayable counter-example;
//   - a device that survived a faulted check runs the next, healthy check
//     to the exact oracle verdict with no residual degradation.
package fault_test

import (
	"testing"

	"simsweep"
	"simsweep/internal/difftest"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
)

// family is one miter construction with an oracle-established ground truth.
type family struct {
	name     string
	miter    *simsweep.AIG
	expected simsweep.Outcome
}

// families builds the chaos miters: two equivalent pairs (different adder
// architectures; a multiplier against its resyn2 restructuring) and one
// not-equivalent pair (a multiplier with one output inverted). All stay
// within the truth-table oracle's width so ground truth is unconditional.
func families(t *testing.T) []family {
	t.Helper()
	build := func(name string, a, b *simsweep.AIG) family {
		m, err := miter.Build(a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		expected, _ := difftest.TruthTable(m)
		return family{name: name, miter: m, expected: expected}
	}

	add, err := gen.Adder(6)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := gen.KoggeStoneAdder(6)
	if err != nil {
		t.Fatal(err)
	}
	mul, err := gen.Multiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	inv := mul.Copy()
	inv.SetPO(0, inv.PO(0).Not())

	fams := []family{
		build("eq-adder-arch", add, ks),
		build("eq-mult-resyn2", mul, opt.Resyn2(mul, nil)),
		build("neq-inverted-po", mul, inv),
	}
	// The suite's assertions lean on these ground truths; pin them so a
	// generator regression fails loudly here rather than as a mysterious
	// chaos failure.
	for i, want := range []simsweep.Outcome{simsweep.Equivalent, simsweep.Equivalent, simsweep.NotEquivalent} {
		if fams[i].expected != want {
			t.Fatalf("family %s: oracle says %v, want %v", fams[i].name, fams[i].expected, want)
		}
	}
	return fams
}

// checkNeverWrong asserts the chaos invariant on one result: the verdict is
// the oracle's or Undecided, and NotEquivalent carries a counter-example
// that actually distinguishes the circuits.
func checkNeverWrong(t *testing.T, label string, f family, res simsweep.Result) {
	t.Helper()
	if res.Outcome != simsweep.Undecided && res.Outcome != f.expected {
		t.Fatalf("%s: verdict %v contradicts oracle %v (degraded=%v faults=%v)",
			label, res.Outcome, f.expected, res.Degraded, res.Faults)
	}
	if res.Outcome == simsweep.NotEquivalent {
		if res.CEX == nil {
			t.Fatalf("%s: NotEquivalent without a counter-example", label)
		}
		hit := false
		for _, v := range f.miter.Eval(res.CEX) {
			hit = hit || v
		}
		if !hit {
			t.Fatalf("%s: counter-example does not drive any miter output to 1", label)
		}
	}
	if res.Degraded && len(res.Faults) == 0 {
		t.Fatalf("%s: Degraded result with an empty fault chain", label)
	}
	if !res.Degraded && len(res.Faults) != 0 {
		t.Fatalf("%s: fault chain %v on a non-degraded result", label, res.Faults)
	}
}

// TestChaosMatrix drives every hook spec through every engine of the
// engine table on every miter family and asserts the no-crash /
// never-wrong / reusable-pool contract. Run under -race (make chaos) it is
// additionally the data-race gate for the recovery paths.
func TestChaosMatrix(t *testing.T) {
	specs := []struct {
		name string
		spec string
	}{
		{"worker-panic", "par.worker.panic:p=0.5"},
		{"worker-panic-first", "par.worker.panic:at=1"},
		{"round-stall", "sim.round.stall:p=0.5,delay=2ms"},
		{"sat-oom", "satsweep.pair.oom:p=0.3"},
		{"everything", "par.worker.panic:p=0.25;sim.round.stall:p=0.25,delay=1ms;satsweep.pair.oom:p=0.25"},
	}

	for _, f := range families(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			// One device per family, shared across every faulted run: the
			// reuse assertions below prove faults never wedge the pool.
			dev := simsweep.NewDevice(4)
			for _, e := range simsweep.Engines() {
				for _, sp := range specs {
					label := string(e.Name) + "/" + sp.name
					// A fresh injector per run: hook counters (at=, limit=)
					// are consumed state.
					in, err := simsweep.ParseFaults(sp.spec, 42)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					res, err := simsweep.CheckMiter(f.miter, simsweep.Options{
						Engine: e.Name,
						Dev:    dev,
						Seed:   1,
						Faults: in,
					})
					if err != nil {
						t.Fatalf("%s: CheckMiter error: %v", label, err)
					}
					checkNeverWrong(t, label, f, res)

					// Pool-reuse invariant: the same device immediately runs
					// a clean check, and complete engines reach the exact
					// oracle verdict with no residual degradation.
					clean, err := simsweep.CheckMiter(f.miter, simsweep.Options{
						Engine: e.Name,
						Dev:    dev,
						Seed:   1,
					})
					if err != nil {
						t.Fatalf("%s: clean re-check error: %v", label, err)
					}
					if clean.Degraded || len(clean.Faults) != 0 {
						t.Fatalf("%s: clean re-check degraded (faults=%v): fault state leaked", label, clean.Faults)
					}
					if !e.Complete {
						if clean.Outcome != simsweep.Undecided && clean.Outcome != f.expected {
							t.Fatalf("%s: clean re-check verdict %v contradicts oracle %v", label, clean.Outcome, f.expected)
						}
					} else if clean.Outcome != f.expected {
						t.Fatalf("%s: clean re-check verdict %v, oracle %v", label, clean.Outcome, f.expected)
					}
				}
			}
		})
	}
}

// TestChaosGuaranteedDegradation pins the combinations where a fault is
// certain to fire and certain to be survivable-but-felt: the result must
// say Degraded with a populated chain, not silently succeed.
func TestChaosGuaranteedDegradation(t *testing.T) {
	fams := families(t)
	mult := fams[1] // eq-mult-resyn2: phases genuinely run (not strash-proved)

	t.Run("sim/worker-panic-at-1", func(t *testing.T) {
		dev := simsweep.NewDevice(4)
		in, _ := simsweep.ParseFaults("par.worker.panic:at=1", 1)
		res, err := simsweep.CheckMiter(mult.miter, simsweep.Options{
			Engine: simsweep.EngineSim, Dev: dev, Seed: 1, Faults: in,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || len(res.Faults) == 0 {
			t.Fatalf("first-launch panic not reported: degraded=%v faults=%v", res.Degraded, res.Faults)
		}
		checkNeverWrong(t, "sim/at=1", mult, res)
	})

	t.Run("sat/oom-at-1", func(t *testing.T) {
		dev := simsweep.NewDevice(4)
		in, _ := simsweep.ParseFaults("satsweep.pair.oom:at=1", 1)
		res, err := simsweep.CheckMiter(mult.miter, simsweep.Options{
			Engine: simsweep.EngineSAT, Dev: dev, Seed: 1, Faults: in,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || len(res.Faults) == 0 {
			t.Fatalf("first SAT-pair blow-up not reported: degraded=%v faults=%v", res.Degraded, res.Faults)
		}
		if res.Outcome != simsweep.Undecided {
			t.Fatalf("recovered sweep outcome = %v, want undecided", res.Outcome)
		}
	})

	t.Run("hybrid/ladder-to-portfolio", func(t *testing.T) {
		// Panic every kernel chunk and blow up every SAT pair: the hybrid
		// flow's sim and SAT rungs both degrade, the ladder falls back to
		// the portfolio, and the BDD member (unhookable) still decides.
		dev := simsweep.NewDevice(4)
		in, _ := simsweep.ParseFaults("par.worker.panic;satsweep.pair.oom", 1)
		res, err := simsweep.CheckMiter(mult.miter, simsweep.Options{
			Engine: simsweep.EngineHybrid, Dev: dev, Seed: 1, Faults: in,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || len(res.Faults) == 0 {
			t.Fatalf("fully-faulted hybrid not degraded: faults=%v", res.Faults)
		}
		checkNeverWrong(t, "hybrid/ladder", mult, res)
		if res.Outcome != mult.expected {
			t.Fatalf("ladder did not rescue the verdict: %v (engine %s)", res.Outcome, res.EngineUsed)
		}
	})
}
