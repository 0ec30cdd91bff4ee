// Black-box tests of the cube prover against the rest of the zoo: the
// hard-miter acceptance demonstrator (baselines starve, cube decides),
// the UNSAT-all-cubes ⇒ Equivalent contract cross-checked against the
// truth-table oracle, and metamorphic verdict invariance under PI
// permutation. Lives in package cube_test so it may import difftest
// (which pulls in simsweep, which pulls in cube).
package cube_test

import (
	"math/rand"
	"testing"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/core"
	"simsweep/internal/cube"
	"simsweep/internal/difftest"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/par"
)

// starvedSim mirrors difftest's tight configuration: windows too small to
// exhaust the input space, a starved memory budget and few local phases.
// It is the "simulation under a tight budget" baseline of the hard-miter
// experiment.
func starvedSim() *core.Config {
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

// satBudget is the tight per-call conflict budget of the SAT baseline.
const satBudget = 200

// TestCubeDecidesHardMiters is the acceptance experiment of the
// decomposition prover: on Booth-vs-array multiplier miters the starved
// simulation baseline and the conflict-budgeted SAT baseline leave the
// equivalent instances Undecided, while the cube prover decides every
// instance. Measured observability makes the NEQ side easy for any
// engine — a single-gate flip in a multiplier toggles ≥12.5% of sampled
// patterns — so the baselines are only required to starve on the EQ side;
// on the NEQ side they must merely never be wrong. Every verdict is
// cross-checked against the truth-table oracle and every counter-example
// is replayed through aig.Eval.
func TestCubeDecidesHardMiters(t *testing.T) {
	widths := []int{5, 6}
	if testing.Short() {
		widths = widths[:1]
	}
	for _, w := range widths {
		for _, flip := range []bool{false, true} {
			m, err := gen.BoothArrayMiter(w, flip)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(m.Name, func(t *testing.T) {
				want, _ := difftest.TruthTable(m)
				wantByConstruction := miter.Equivalent
				if flip {
					wantByConstruction = miter.NotEquivalent
				}
				if want != wantByConstruction {
					t.Fatalf("oracle says %v, generator promised %v", want, wantByConstruction)
				}

				simRes, err := simsweep.CheckMiter(m, simsweep.Options{
					Engine:    simsweep.EngineSim,
					Workers:   2,
					Seed:      11,
					SimConfig: starvedSim(),
				})
				if err != nil {
					t.Fatal(err)
				}
				satRes, err := simsweep.CheckMiter(m, simsweep.Options{
					Engine:        simsweep.EngineSAT,
					Workers:       2,
					Seed:          11,
					ConflictLimit: satBudget,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !flip {
					// The starved baselines must genuinely fail on the EQ side,
					// or the family is not a hard-miter demonstrator at all.
					if simRes.Outcome != simsweep.Undecided {
						t.Fatalf("starved sim decided %s: %v (want undecided)", m.Name, simRes.Outcome)
					}
					if satRes.Outcome != simsweep.Undecided {
						t.Fatalf("budgeted SAT decided %s: %v (want undecided)", m.Name, satRes.Outcome)
					}
				} else {
					// Never wrong, even when the needle is easy to hit.
					for _, r := range []simsweep.Result{simRes, satRes} {
						if r.Outcome == simsweep.Equivalent {
							t.Fatalf("baseline proved the NEQ miter %s equivalent", m.Name)
						}
					}
				}

				dev := par.NewDevice(2)
				defer dev.Close()
				cr := cube.CheckMiter(m, cube.Options{Dev: dev, Seed: 11})
				wantCube := miter.Equivalent
				if flip {
					wantCube = miter.NotEquivalent
				}
				if cr.Outcome != wantCube {
					t.Fatalf("cube on %s: got %v want %v (stats %+v, faults %v)",
						m.Name, cr.Outcome, wantCube, cr.Stats, cr.Faults)
				}
				if flip {
					if cr.CEX == nil {
						t.Fatalf("NEQ verdict on %s without a counter-example", m.Name)
					}
					found := false
					for _, v := range m.Eval(cr.CEX) {
						found = found || v
					}
					if !found {
						t.Fatalf("counter-example on %s does not replay through aig.Eval", m.Name)
					}
				}
			})
		}
	}
}

// TestUnsatAllCubesImpliesEquivalent pins the soundness direction of the
// decomposition: an Equivalent verdict is issued exactly when every cube
// came back UNSAT (Unknown 0, no faults, at least one proved cube), and it
// agrees with the truth-table oracle.
func TestUnsatAllCubesImpliesEquivalent(t *testing.T) {
	mul, err := gen.Multiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	booth, err := gen.BoothArrayMiter(4, false)
	if err != nil {
		t.Fatal(err)
	}
	resyn, err := miter.Build(mul, opt.Resyn2(mul, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*aig.AIG{booth, resyn} {
		want, _ := difftest.TruthTable(m)
		if want != miter.Equivalent {
			t.Fatalf("%s: oracle disagrees with equivalent-by-construction", m.Name)
		}
		dev := par.NewDevice(2)
		r := cube.CheckMiter(m, cube.Options{Dev: dev, Seed: 7})
		dev.Close()
		if r.Outcome != miter.Equivalent {
			t.Fatalf("%s: cube returned %v on an oracle-EQ miter (stats %+v, faults %v)",
				m.Name, r.Outcome, r.Stats, r.Faults)
		}
		if r.Stats.Unknown != 0 || len(r.Faults) != 0 {
			t.Fatalf("%s: Equivalent with open work: %+v faults %v", m.Name, r.Stats, r.Faults)
		}
		if r.Stats.Proved == 0 {
			t.Fatalf("%s: Equivalent without a single proved cube", m.Name)
		}
	}
}

// TestBudgetedRunStaysHonest starves the prover (every cube capped at one
// conflict, ever) and checks that incompleteness is reported as Undecided
// with open cubes — never converted into a verdict.
func TestBudgetedRunStaysHonest(t *testing.T) {
	m, err := gen.BoothArrayMiter(5, false)
	if err != nil {
		t.Fatal(err)
	}
	dev := par.NewDevice(2)
	defer dev.Close()
	r := cube.CheckMiter(m, cube.Options{
		Dev:           dev,
		Seed:          7,
		ConflictLimit: 1,
		InitialBudget: 1,
	})
	if r.Outcome == miter.NotEquivalent {
		t.Fatalf("starved run disproved an equivalent miter")
	}
	if r.Outcome == miter.Equivalent {
		t.Fatalf("one-conflict budget proved a Booth miter; budget is not being honoured")
	}
	if r.Stats.Unknown == 0 {
		t.Fatalf("Undecided with no open cubes: %+v", r.Stats)
	}
}

// TestCubeVerdictInvariantUnderPIPermutation is the metamorphic property:
// permuting the miter's primary inputs must not change the verdict, and a
// counter-example offered for a permuted miter must replay on that miter.
func TestCubeVerdictInvariantUnderPIPermutation(t *testing.T) {
	eq, err := gen.BoothArrayMiter(4, false)
	if err != nil {
		t.Fatal(err)
	}
	neq, err := gen.BoothArrayMiter(4, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for _, m := range []*aig.AIG{eq, neq} {
		dev := par.NewDevice(2)
		base := cube.CheckMiter(m, cube.Options{Dev: dev, Seed: 5})
		dev.Close()
		if base.Outcome == miter.Undecided {
			t.Fatalf("%s: complete run undecided (faults %v)", m.Name, base.Faults)
		}
		for trial := 0; trial < 3; trial++ {
			perm := rng.Perm(m.NumPIs())
			pm := difftest.PermutePIs(m, perm)
			dev := par.NewDevice(2)
			pr := cube.CheckMiter(pm, cube.Options{Dev: dev, Seed: 5})
			dev.Close()
			if pr.Outcome != base.Outcome {
				t.Fatalf("%s trial %d: verdict changed under PI permutation: %v vs %v",
					m.Name, trial, base.Outcome, pr.Outcome)
			}
			if pr.Outcome == miter.NotEquivalent {
				found := false
				for _, v := range pm.Eval(pr.CEX) {
					found = found || v
				}
				if !found {
					t.Fatalf("%s trial %d: permuted counter-example fails replay", m.Name, trial)
				}
			}
		}
	}
}
