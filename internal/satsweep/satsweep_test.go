package satsweep

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"simsweep/internal/aig"
	"simsweep/internal/fault"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/trace"
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

func TestSweepProvesAdderEquivalence(t *testing.T) {
	m, err := miter.Build(adder(6, false), adder(6, true))
	if err != nil {
		t.Fatal(err)
	}
	res := CheckMiter(m, Options{Seed: 1})
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v, stats = %+v", res.Outcome, res.Stats)
	}
	if res.Stats.SATCalls() == 0 {
		t.Fatal("sweep proved a non-trivial miter with zero SAT calls")
	}
}

func TestSweepFindsBug(t *testing.T) {
	good := adder(5, false)
	bad := adder(5, true)
	// Corrupt one output of bad.
	bad.SetPO(2, bad.PO(2).Not())
	m, err := miter.Build(good, bad)
	if err != nil {
		t.Fatal(err)
	}
	res := CheckMiter(m, Options{Seed: 2})
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.CEX == nil {
		t.Fatal("no counter-example")
	}
	out := m.Eval(res.CEX)
	fired := false
	for _, v := range out {
		fired = fired || v
	}
	if !fired {
		t.Fatalf("CEX %v does not fire the miter", res.CEX)
	}
}

func TestSweepSubtleBugNeedsSAT(t *testing.T) {
	// A bug that random simulation is unlikely to hit: outputs differ
	// only when all 12 inputs are 1.
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
	o1 := g1.Xor(x1[0], x1[1])
	o2 := g2.Xor(g2.Xor(x2[0], x2[1]), andAll(g2, x2)) // flips on all-ones
	g1.AddPO(o1)
	g2.AddPO(o2)
	m, err := miter.Build(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	res := CheckMiter(m, Options{Seed: 3, simWords: 1})
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	for i, v := range res.CEX {
		if !v {
			t.Fatalf("CEX[%d] = false, want all-ones: %v", i, res.CEX)
		}
	}
	// The sweep itself ends there: the model that tells the PO node from
	// the constant fires the PO once simulated.
	if _, cex, st := Sweep(m, Options{Seed: 3, simWords: 1}, 0); st.Pairs.Disproved == 0 || !fires(m, cex) {
		t.Fatalf("sweep: %d pairs disproved, counter-example %v", st.Pairs.Disproved, cex)
	}
}

func TestSweepConflictBudgetUndecided(t *testing.T) {
	// A miter of two genuinely different multiplier-like cones with a
	// one-conflict budget: the sweep must give up, not lie.
	rng := rand.New(rand.NewSource(4))
	mk := func(extra bool) *aig.AIG {
		g := aig.New()
		var xs []aig.Lit
		for i := 0; i < 10; i++ {
			xs = append(xs, g.AddPI())
		}
		lits := append([]aig.Lit{}, xs...)
		r := rand.New(rand.NewSource(42)) // same structure both sides
		for i := 0; i < 120; i++ {
			a := lits[r.Intn(len(lits))].NotIf(r.Intn(2) == 1)
			b := lits[r.Intn(len(lits))].NotIf(r.Intn(2) == 1)
			lits = append(lits, g.And(a, b))
		}
		out := lits[len(lits)-1]
		if extra {
			// Restructure: balanced re-expression of the same output.
			f0, f1 := g.Fanins(out.ID())
			out = g.And(g.And(f0, f1), g.Or(f0, f1)).NotIf(out.IsCompl())
		}
		g.AddPO(out)
		return g
	}
	_ = rng
	m, err := miter.Build(mk(false), mk(true))
	if err != nil {
		t.Fatal(err)
	}
	res := CheckMiter(m, Options{Seed: 5, ConflictLimit: 1})
	// With a tiny budget the verdict may be Undecided; it must never be
	// NotEquivalent (the circuits are equivalent by construction).
	if res.Outcome == miter.NotEquivalent {
		t.Fatalf("budgeted sweep produced a wrong disproof")
	}
}

func TestSweepStopCancels(t *testing.T) {
	m, err := miter.Build(adder(8, false), adder(8, true))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	res := CheckMiter(m, Options{Seed: 6, Stop: stop})
	if res.Outcome != miter.Undecided {
		t.Fatalf("cancelled sweep returned %v", res.Outcome)
	}
}

func TestOutcomeStrings(t *testing.T) {
	if miter.Equivalent.String() != "equivalent" || miter.NotEquivalent.String() != "NOT equivalent" || miter.Undecided.String() != "undecided" {
		t.Fatal("outcome strings wrong")
	}
}

func TestSweepFallsThroughToPOProof(t *testing.T) {
	// A miter with no internal candidate pairs (the two majority
	// implementations share all their small nodes structurally), so the
	// sweep rounds make no progress and the final PO stage must prove
	// the output constant by SAT.
	g1 := aig.New()
	a := g1.AddPI()
	b := g1.AddPI()
	c := g1.AddPI()
	// maj = ab | c(a^b)
	g1.AddPO(g1.Or(g1.And(a, b), g1.And(c, g1.Xor(a, b))))
	g2 := aig.New()
	a2 := g2.AddPI()
	b2 := g2.AddPI()
	c2 := g2.AddPI()
	// maj = (a|b)c | ab
	g2.AddPO(g2.Or(g2.And(g2.Or(a2, b2), c2), g2.And(a2, b2)))
	m, err := miter.Build(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	res := CheckMiter(m, Options{Seed: 12, simWords: 4})
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v (stats %+v)", res.Outcome, res.Stats)
	}
}

func TestSweepPOProofDisproves(t *testing.T) {
	// Same shape but genuinely different functions that random sim
	// might distinguish only via the PO (tiny bank).
	g1 := aig.New()
	a := g1.AddPI()
	b := g1.AddPI()
	g1.AddPO(g1.And(a, b))
	g2 := aig.New()
	a2 := g2.AddPI()
	b2 := g2.AddPI()
	g2.AddPO(g2.Or(a2, b2))
	m, err := miter.Build(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	res := CheckMiter(m, Options{Seed: 13, simWords: 1})
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if !fires(m, res.CEX) {
		t.Fatal("invalid CEX")
	}
}

func TestSweepBudgetExhaustionReachesPOStage(t *testing.T) {
	// Array vs Booth multipliers share almost no internal structure and
	// their PO equivalences are hard; with a one-conflict budget the
	// sweep rounds stall on Unknown pairs and the final PO stage runs
	// (and must also give up rather than guess).
	array, err := gen.Multiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	booth, err := gen.MultiplierBooth(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := miter.Build(array, booth)
	if err != nil {
		t.Fatal(err)
	}
	res := CheckMiter(m, Options{Seed: 14, ConflictLimit: 1})
	if res.Outcome == miter.NotEquivalent {
		t.Fatal("budgeted sweep disproved an equivalent miter")
	}
	// And with the budget lifted, the same miter is proved.
	res = CheckMiter(m, Options{Seed: 14})
	if res.Outcome != miter.Equivalent {
		t.Fatalf("unbudgeted outcome = %v", res.Outcome)
	}
}

func TestSweepRuntimeRecorded(t *testing.T) {
	m, err := miter.Build(adder(6, false), adder(6, true))
	if err != nil {
		t.Fatal(err)
	}
	res := CheckMiter(m, Options{Seed: 9})
	if res.Stats.Runtime <= 0 {
		t.Fatalf("runtime not recorded: %v", res.Stats.Runtime)
	}
}

func TestSweepReducedMiterSmaller(t *testing.T) {
	m, err := miter.Build(adder(6, false), adder(6, true))
	if err != nil {
		t.Fatal(err)
	}
	res := CheckMiter(m, Options{Seed: 7})
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Reduced.NumAnds() != 0 {
		t.Fatalf("proved miter still has %d ANDs", res.Reduced.NumAnds())
	}
}

func TestQuickSweepAgreesWithEnumeration(t *testing.T) {
	f := func(seed int64, mutate bool) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func(mutated bool) *aig.AIG {
			r := rand.New(rand.NewSource(seed + 1000))
			g := aig.New()
			var lits []aig.Lit
			for i := 0; i < 5; i++ {
				lits = append(lits, g.AddPI())
			}
			for i := 0; i < 25; i++ {
				a := lits[r.Intn(len(lits))].NotIf(r.Intn(2) == 1)
				b := lits[r.Intn(len(lits))].NotIf(r.Intn(2) == 1)
				lits = append(lits, g.And(a, b))
			}
			out := lits[len(lits)-1]
			if mutated {
				out = g.Xor(out, g.And(lits[5], lits[7]))
			}
			g.AddPO(out)
			return g
		}
		g1 := build(false)
		g2 := build(mutate)
		m, err := miter.Build(g1, g2)
		if err != nil {
			return false
		}
		// Ground truth by enumeration.
		same := true
		for pat := 0; pat < 32; pat++ {
			in := make([]bool, 5)
			for i := range in {
				in[i] = (pat>>uint(i))&1 == 1
			}
			if g1.Eval(in)[0] != g2.Eval(in)[0] {
				same = false
				break
			}
		}
		res := CheckMiter(m, Options{Seed: rng.Int63(), simWords: 1})
		if same {
			return res.Outcome == miter.Equivalent
		}
		return res.Outcome == miter.NotEquivalent && fires(m, res.CEX)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func fires(m *aig.AIG, cex []bool) bool {
	if cex == nil {
		return false
	}
	for _, v := range m.Eval(cex) {
		if v {
			return true
		}
	}
	return false
}

// constantOneMiter returns an EQ adder miter with one more PO, the
// complement of a non-constant PO n, together with what a budgeted PO pass
// that proved n and then ran out of time before ¬n hands on: the miter with
// n merged to constant zero, where ¬n is the literal aig.True.
func constantOneMiter(t *testing.T) (m, reduced *aig.AIG) {
	t.Helper()
	m, err := miter.Build(adder(4, false), adder(4, true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumPOs(); i++ {
		if n := m.PO(i); n.ID() != 0 {
			m.AddPO(n.Not())
			reduced, _, err = miter.Reduce(m, []miter.Merge{{Member: int32(n.ID()), Target: aig.False.NotIf(n.IsCompl())}})
			if err != nil {
				t.Fatal(err)
			}
			if reduced.PO(m.NumPOs()-1) != aig.True {
				t.Fatalf("merged miter's last PO = %v, want constant one", reduced.PO(m.NumPOs()-1))
			}
			return m, reduced
		}
	}
	t.Fatal("adder miter has no non-constant PO")
	return nil, nil
}

// ample is a conflict budget no PO pass of these tests comes near.
const ample = int64(1) << 40

// TestPOPassConstantOneHasCEX checks that a check with a budget (CheckPOs)
// or without (CheckMiter) disproves a miter with a constant-one PO by a
// counter-example (any input fires it) that replays on both the merged and
// the original miter.
func TestPOPassConstantOneHasCEX(t *testing.T) {
	m, reduced := constantOneMiter(t)
	budgeted, _, _ := CheckPOs(reduced, Options{}, ample, nil)
	unbudgeted := CheckMiter(reduced, Options{})
	for _, res := range []Result{budgeted, unbudgeted} {
		if res.Outcome != miter.NotEquivalent {
			t.Fatalf("outcome = %v, want not equivalent", res.Outcome)
		}
		if len(res.CEX) != m.NumPIs() || !fires(reduced, res.CEX) || !fires(m, res.CEX) {
			t.Fatalf("counter-example %v does not replay", res.CEX)
		}
	}
}

// TestCheckPOsBudget pins the budgeted PO pass: a spent budget asks nothing
// and hands the miter back undecided, not stopped; an ample one proves every
// PO and charges nothing; a faulted query, of a PO or of the sweep's pair,
// is recovered into an Undecided result that carries the input miter and
// the fault.
func TestCheckPOsBudget(t *testing.T) {
	m, err := miter.Build(adder(6, false), adder(6, true))
	if err != nil {
		t.Fatal(err)
	}
	res, unanswered, _ := CheckPOs(m, Options{}, 0, nil)
	if res.Outcome != miter.Undecided || res.Stopped || res.Reduced != m || res.Stats.SATCalls() != 0 || unanswered != 0 {
		t.Fatalf("zero budget: outcome %v, stopped %v, %d calls, %d unanswered", res.Outcome, res.Stopped, res.Stats.SATCalls(), unanswered)
	}
	res, unanswered, _ = CheckPOs(m, Options{}, ample, nil)
	if res.Outcome != miter.Equivalent || !miter.IsProved(res.Reduced) || res.Stats.SATCalls() == 0 || res.Stats.Runtime <= 0 || unanswered != 0 {
		t.Fatalf("ample budget: outcome %v, %d calls, runtime %v, %d unanswered", res.Outcome, res.Stats.SATCalls(), res.Stats.Runtime, unanswered)
	}
	in, err := fault.Parse("satsweep.pair.oom:every=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _ = CheckPOs(m, Options{Faults: in}, ample, nil)
	if res.Outcome != miter.Undecided || res.Reduced != m || len(res.Faults) != 1 {
		t.Fatalf("faulted: outcome %v, faults %v", res.Outcome, res.Faults)
	}
	// CheckMiter sweeps before it asks any PO, so there the hook fires on
	// a pair query.
	if res := CheckMiter(m, Options{Faults: in}); res.Outcome != miter.Undecided || res.Reduced != m || len(res.Faults) != 1 {
		t.Fatalf("faulted sweep: outcome %v, faults %v", res.Outcome, res.Faults)
	}
}

// poConflicts runs a traced PO pass over m under a budget that no call runs
// out of and returns the conflicts of its costliest call and of all its
// calls.
func poConflicts(t *testing.T, m *aig.AIG) (most, total int64) {
	t.Helper()
	tr := trace.New(0)
	tr.Enable()
	if res, _, _ := CheckPOs(m, Options{Trace: tr}, ample, nil); res.Stats.Pairs.Asked != 0 {
		t.Fatalf("the PO pass under an ample budget swept: %+v", res.Stats)
	}
	for _, e := range tr.Events() {
		if e.Kind != trace.KindSpan || e.Name != "sat.po" {
			continue
		}
		for _, a := range e.Args[:e.NArg] {
			if a.Key == "conflicts" {
				most = max(most, a.Val)
				total += a.Val
			}
		}
	}
	return most, total
}

// TestCheckPOsChargesOnlyUnanswered pins the charging rule of the attempt:
// a call that proves its PO or finds a model costs nothing, and a call that
// runs out of its share costs exactly that share. Under a budget of the
// conflicts of the PO pass's costliest call times the open POs, every
// call's share is the costliest call (a call answers under a limit equal to
// the conflicts it needs), so no call runs out: the attempt decides the EQ
// miter Equivalent and disproves the NEQ one, whose differing PO is last,
// with nothing charged and no sweep, though it spends more conflicts than
// any one share. One conflict less and the costliest call runs out of its
// share, a conflict short: the attempt charges that share alone, sweeps the
// open cones and decides the same.
func TestCheckPOsChargesOnlyUnanswered(t *testing.T) {
	eq, err := miter.Build(adder(6, false), adder(6, true))
	if err != nil {
		t.Fatal(err)
	}
	bad := adder(6, true)
	a0, b0 := bad.PI(0), bad.PI(6)
	last := bad.NumPOs() - 1
	bad.SetPO(last, bad.Or(bad.PO(last), bad.And(a0, b0)))
	neq, err := miter.Build(adder(6, false), bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *aig.AIG
		want miter.Outcome
	}{{"EQ", eq, miter.Equivalent}, {"NEQ", neq, miter.NotEquivalent}} {
		most, total := poConflicts(t, tc.m)
		open := int64(openPOs(tc.m))
		if most == 0 || total <= most {
			t.Fatalf("%s: costliest call %d of %d conflicts: the miter does not separate the charging rules", tc.name, most, total)
		}
		res, unanswered, _ := CheckPOs(tc.m, Options{}, most*open, nil)
		if res.Outcome != tc.want || res.Stats.POs.Asked != openPOs(tc.m) || res.Stats.Pairs.Asked != 0 || unanswered != 0 {
			t.Fatalf("%s, shares of %d of %d conflicts: outcome %v, %d of %d POs asked, %d pairs, %d unanswered",
				tc.name, most, total, res.Outcome, res.Stats.POs.Asked, openPOs(tc.m), res.Stats.Pairs.Asked, unanswered)
		}
		if tc.want == miter.NotEquivalent && !fires(tc.m, res.CEX) {
			t.Fatalf("%s: counter-example %v does not replay", tc.name, res.CEX)
		}
		res, unanswered, _ = CheckPOs(tc.m, Options{}, most*open-1, nil)
		if res.Outcome != tc.want || res.Stats.POs.Unknown != 1 || unanswered != most-1 {
			t.Fatalf("%s, shares of %d conflicts: outcome %v, %d POs unanswered, %d pairs, %d charged",
				tc.name, most-1, res.Outcome, res.Stats.POs.Unknown, res.Stats.Pairs.Asked, unanswered)
		}
		if tc.want == miter.NotEquivalent && !fires(tc.m, res.CEX) {
			t.Fatalf("%s: counter-example %v of the sweep does not replay", tc.name, res.CEX)
		}
	}
}

// openPOs counts the POs of m that are not constant: the ones a PO pass asks.
func openPOs(m *aig.AIG) int {
	n := 0
	for i := 0; i < m.NumPOs(); i++ {
		if m.PO(i).ID() != 0 {
			n++
		}
	}
	return n
}

// TestCheckPOsAsksStalledPOsLast puts one PO that needs seconds of SAT (the
// middle product bit of an 8-bit Booth-vs-array multiplier miter) ahead of
// the easy POs of an adder miter, under a budget of 2,000 conflicts. The
// first attempt's call on the hard PO runs out of its share, and the sweep
// of the open cones, which reaches the hard PO's cone first, spends the
// rest of the budget there, exactly, before it reaches any easy PO. The
// second attempt, told that PO stalled, must ask it last and prove every
// easy PO first; in index order it would spend its whole budget on the hard
// PO's cone again. With a per-call ConflictLimit below the share, no call
// spends the budget alone: the first attempt charges the hard PO's calls
// and the sweep's hard pairs that limit each and sweeps on to prove every
// easy PO within the budget.
func TestCheckPOsAsksStalledPOsLast(t *testing.T) {
	hard, err := gen.BoothArrayMiter(8, false)
	if err != nil {
		t.Fatal(err)
	}
	easy, err := miter.Build(adder(6, false), adder(6, true))
	if err != nil {
		t.Fatal(err)
	}
	m := aig.New()
	m.AddPO(embed(m, hard)[8])
	for _, po := range embed(m, easy) {
		m.AddPO(po)
	}
	const budget = 2000

	first, unanswered, stalled := CheckPOs(m, Options{}, budget, nil)
	if first.Outcome != miter.Undecided || first.Stats.POs.Asked != 1 || first.Stats.Pairs.Asked == 0 ||
		unanswered != budget || !slices.Equal(stalled, []int{0}) || openPOs(first.Reduced) != openPOs(m) {
		t.Fatalf("first attempt: outcome %v, %d POs and %d pairs asked, %d unanswered, stalled %v, %d of %d POs open; want undecided after one PO, %d unanswered, stalled [0], no PO proved",
			first.Outcome, first.Stats.POs.Asked, first.Stats.Pairs.Asked, unanswered, stalled, openPOs(first.Reduced), openPOs(m), budget)
	}
	second, unanswered, stalled := CheckPOs(first.Reduced, Options{}, budget, stalled)
	if second.Stats.POs.Proved != openPOs(m)-1 || unanswered != budget || !slices.Equal(stalled, []int{0}) {
		t.Fatalf("second attempt: %d of %d easy POs proved, %d unanswered, stalled %v", second.Stats.POs.Proved, openPOs(m)-1, unanswered, stalled)
	}
	assertEasyProved(t, "second attempt", second.Reduced)

	const perCall = 300
	capped, unanswered, stalled := CheckPOs(m, Options{ConflictLimit: perCall}, budget, nil)
	if unanswered >= budget || !slices.Equal(stalled, []int{0}) {
		t.Fatalf("per-call limit %d: %d unanswered, stalled %v; want under the budget of %d, stalled [0]", perCall, unanswered, stalled, budget)
	}
	assertEasyProved(t, "per-call limit", capped.Reduced)
}

// assertEasyProved checks that every PO of m but the first, the hard one,
// is proved, and the first is still open.
func assertEasyProved(t *testing.T, pass string, m *aig.AIG) {
	t.Helper()
	for i := 1; i < m.NumPOs(); i++ {
		if m.PO(i) != aig.False {
			t.Fatalf("%s: PO %d left open", pass, i)
		}
	}
	if m.PO(0).ID() == 0 {
		t.Fatalf("%s: the hard PO was answered inside its conflict budget", pass)
	}
}

// embed copies the PIs and ANDs of src into dst, with fresh PIs, and
// returns src's PO literals in dst.
func embed(dst, src *aig.AIG) []aig.Lit {
	lit := make([]aig.Lit, src.NumNodes())
	for id := 1; id < src.NumNodes(); id++ {
		if src.IsPI(id) {
			lit[id] = dst.AddPI()
			continue
		}
		f0, f1 := src.Fanins(id)
		lit[id] = dst.And(lit[f0.ID()].NotIf(f0.IsCompl()), lit[f1.ID()].NotIf(f1.IsCompl()))
	}
	out := make([]aig.Lit, src.NumPOs())
	for i := range out {
		po := src.PO(i)
		out[i] = lit[po.ID()].NotIf(po.IsCompl())
	}
	return out
}
