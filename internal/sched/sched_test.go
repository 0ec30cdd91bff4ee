package sched

import (
	"math/rand"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/fault"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
)

// adder builds an n-bit ripple-carry adder; variant changes the carry
// structure without changing the function.
func adder(n int, variant bool) *aig.AIG {
	g := aig.New()
	a := make([]aig.Lit, n)
	b := make([]aig.Lit, n)
	for i := range a {
		a[i] = g.AddPI()
	}
	for i := range b {
		b[i] = g.AddPI()
	}
	carry := aig.False
	for i := 0; i < n; i++ {
		if variant {
			g.AddPO(g.Xor(g.Xor(a[i], b[i]), carry))
			carry = g.Or(g.And(a[i], b[i]), g.And(carry, g.Or(a[i], b[i])))
		} else {
			t := g.Xor(b[i], carry)
			g.AddPO(g.Xor(a[i], t))
			carry = g.Or(g.And(a[i], b[i]), g.And(g.Xor(a[i], b[i]), carry))
		}
	}
	g.AddPO(carry)
	return g
}

// tangle builds a random 10-PI, 120-AND cone; restructure re-expresses the
// output without changing its function, so tangle(false) and tangle(true)
// are equivalent by construction but not structurally identical.
func tangle(restructure bool) *aig.AIG {
	g := aig.New()
	var xs []aig.Lit
	for i := 0; i < 10; i++ {
		xs = append(xs, g.AddPI())
	}
	lits := append([]aig.Lit{}, xs...)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 120; i++ {
		a := lits[r.Intn(len(lits))].NotIf(r.Intn(2) == 1)
		b := lits[r.Intn(len(lits))].NotIf(r.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	out := lits[len(lits)-1]
	if restructure {
		f0, f1 := g.Fanins(out.ID())
		out = g.And(g.And(f0, f1), g.Or(f0, f1)).NotIf(out.IsCompl())
	}
	g.AddPO(out)
	return g
}

func mustMiter(t *testing.T, a, b *aig.AIG) *aig.AIG {
	t.Helper()
	m, err := miter.Build(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSchedProvesAdderEquivalence(t *testing.T) {
	m := mustMiter(t, adder(6, false), adder(6, true))
	res := CheckMiter(m, Options{Seed: 1})
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v, stats = %+v, faults = %v", res.Outcome, res.Stats, res.Faults)
	}
	if res.Stats.Classes == 0 {
		t.Fatal("sweep proved a non-trivial miter without scheduling any class")
	}
	routed := uint64(0)
	for _, row := range res.Stats.PerEngine {
		routed += row.Routed
	}
	if int(routed)+res.Stats.Deferred != res.Stats.Classes {
		t.Fatalf("routed %d + deferred %d classes, scheduled %d",
			routed, res.Stats.Deferred, res.Stats.Classes)
	}
}

func TestSchedFindsBug(t *testing.T) {
	good := adder(5, false)
	bad := adder(5, true)
	bad.SetPO(2, bad.PO(2).Not())
	m := mustMiter(t, good, bad)
	res := CheckMiter(m, Options{Seed: 2})
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.CEX == nil {
		t.Fatal("no counter-example")
	}
	fired := false
	for _, v := range m.Eval(res.CEX) {
		fired = fired || v
	}
	if !fired {
		t.Fatalf("CEX %v does not fire the miter", res.CEX)
	}
}

func TestSchedSubtleBugExhaustiveSim(t *testing.T) {
	// Outputs differ only on the all-ones assignment of 12 inputs —
	// random simulation is hopeless, but the class support (12) is under
	// the scheduler's enumeration cap, so either the sim prover or the
	// final decision pass must produce the exact pattern.
	g1 := aig.New()
	g2 := aig.New()
	var x1, x2 []aig.Lit
	for i := 0; i < 12; i++ {
		x1 = append(x1, g1.AddPI())
		x2 = append(x2, g2.AddPI())
	}
	andAll := func(g *aig.AIG, xs []aig.Lit) aig.Lit {
		acc := aig.True
		for _, x := range xs {
			acc = g.And(acc, x)
		}
		return acc
	}
	g1.AddPO(g1.Xor(x1[0], x1[1]))
	g2.AddPO(g2.Xor(g2.Xor(x2[0], x2[1]), andAll(g2, x2)))
	m := mustMiter(t, g1, g2)
	res := CheckMiter(m, Options{Seed: 3, simWords: 1})
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	for i, v := range res.CEX {
		if !v {
			t.Fatalf("CEX[%d] = false, want all-ones: %v", i, res.CEX)
		}
	}
}

func TestSchedForcedEnginesStayComplete(t *testing.T) {
	for _, engine := range []string{EngineSim, EngineSAT, EngineBDD} {
		m := mustMiter(t, adder(5, false), adder(5, true))
		res := CheckMiter(m, Options{Seed: 4, Force: engine})
		if res.Outcome != miter.Equivalent {
			t.Fatalf("force=%s: outcome = %v, faults = %v", engine, res.Outcome, res.Faults)
		}
	}
}

func TestSchedAgreesByConstruction(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := gen.Random(8, 2, 40, seed)
		twin := g.Copy()
		m := mustMiter(t, g, twin)
		if res := CheckMiter(m, Options{Seed: seed}); res.Outcome != miter.Equivalent {
			t.Fatalf("seed %d: identical circuits judged %v", seed, res.Outcome)
		}
		bad := g.Copy()
		bad.SetPO(0, bad.PO(0).Not())
		m = mustMiter(t, g, bad)
		res := CheckMiter(m, Options{Seed: seed})
		if res.Outcome != miter.NotEquivalent {
			t.Fatalf("seed %d: negated PO judged %v", seed, res.Outcome)
		}
	}
}

func TestSchedEscalationLadder(t *testing.T) {
	// Squeeze the sim prover out (support cap 1) and give routed SAT a
	// one-conflict budget: hard classes must escalate along their ladder
	// and the verdict must still land via BDD or the final pass.
	m := mustMiter(t, tangle(false), tangle(true))
	res := CheckMiter(m, Options{Seed: 5, supportCap: 1, routeConflictLimit: 1})
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v, faults = %v", res.Outcome, res.Faults)
	}
	if res.Stats.Escalations == 0 {
		t.Fatalf("starved provers produced no escalations: %+v", res.Stats)
	}
}

func TestSchedZeroClassStatsGuard(t *testing.T) {
	// A miter refuted by plain simulation in round one never builds a
	// class; the percentage accessors must not divide by zero.
	g1 := aig.New()
	g2 := aig.New()
	g1.AddPO(g1.AddPI())
	g2.AddPO(g2.AddPI().Not())
	m := mustMiter(t, g1, g2)
	res := CheckMiter(m, Options{Seed: 6})
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Stats.Classes != 0 {
		t.Fatalf("trivial miter scheduled %d classes", res.Stats.Classes)
	}
	if p := res.Stats.RoutedPercent(EngineSim); p != 0 {
		t.Fatalf("RoutedPercent on zero classes = %v", p)
	}
	if p := res.Stats.EscalationPercent(); p != 0 {
		t.Fatalf("EscalationPercent on zero classes = %v", p)
	}
	var zero Stats
	if zero.RoutedPercent(EngineBDD) != 0 || zero.EscalationPercent() != 0 {
		t.Fatal("zero-value Stats percentages must be 0")
	}
}

func TestSchedFaultDegradesNeverFlips(t *testing.T) {
	inj := fault.MustParse("satsweep.pair.oom:p=1", 7)
	m := mustMiter(t, adder(5, false), adder(5, true))
	res := CheckMiter(m, Options{Seed: 7, Faults: inj})
	if res.Outcome == miter.NotEquivalent {
		t.Fatalf("sabotaged sweep flipped an equivalent miter: %+v", res.Stats)
	}
	if res.Outcome == miter.Undecided && len(res.Faults) == 0 {
		t.Fatal("degraded run reports no faults")
	}
}

func TestSchedStopCancels(t *testing.T) {
	m := mustMiter(t, adder(8, false), adder(8, true))
	stop := make(chan struct{})
	close(stop)
	res := CheckMiter(m, Options{Seed: 10, Stop: stop})
	if res.Outcome != miter.Undecided || !res.Stopped {
		t.Fatalf("cancelled run: outcome = %v, stopped = %v", res.Outcome, res.Stopped)
	}
}

// TestFinishPOsConstantOneHasCEX checks that the final PO pass disproves a
// miter with a constant-one PO (the complement of a PO proved and merged to
// constant zero) by a counter-example that replays on the original miter.
func TestFinishPOsConstantOneHasCEX(t *testing.T) {
	m := mustMiter(t, adder(4, false), adder(4, true))
	var reduced *aig.AIG
	for i := 0; i < m.NumPOs() && reduced == nil; i++ {
		if n := m.PO(i); n.ID() != 0 {
			m.AddPO(n.Not())
			var err error
			reduced, _, err = miter.Reduce(m, []miter.Merge{{Member: int32(n.ID()), Target: aig.False.NotIf(n.IsCompl())}})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if reduced == nil || reduced.PO(m.NumPOs()-1) != aig.True {
		t.Fatal("no constant-one PO to check")
	}
	sc := &sweeper{res: &Result{}}
	res := sc.finishPOs(reduced)
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("outcome = %v, want not equivalent", res.Outcome)
	}
	fired := false
	for _, v := range m.Eval(res.CEX) {
		fired = fired || v
	}
	if len(res.CEX) != m.NumPIs() || !fired {
		t.Fatalf("counter-example %v does not replay", res.CEX)
	}
}
