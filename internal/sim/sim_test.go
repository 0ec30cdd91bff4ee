package sim

import (
	"math/rand"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/par"
)

func dev() *par.Device { return par.NewDevice(4) }

// buildXorPair returns an AIG with two structurally different XOR
// implementations of the same inputs, plus an unrelated AND.
func buildXorPair() (*aig.AIG, aig.Lit, aig.Lit, aig.Lit) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	x1 := g.Xor(a, b)
	// x2 = (a|b) & !(a&b), a different structure for XOR.
	x2 := g.And(g.Or(a, b), g.And(a, b).Not())
	other := g.And(a, b)
	g.AddPO(x1)
	g.AddPO(x2)
	g.AddPO(other)
	return g, x1, x2, other
}

func TestAddPatternPacksAndApplies(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	g.AddPO(g.And(a, b))
	p := NewPartial(dev(), 2, 1, 3)
	w0 := p.Words()
	// Queue 3 patterns; all land in one appended word.
	p.AddPattern([]PIValue{{0, true}, {1, true}})
	p.AddPattern([]PIValue{{0, true}, {1, false}})
	p.AddPattern([]PIValue{{0, false}, {1, true}})
	if p.Words() != w0+1 {
		t.Fatalf("words = %d, want %d", p.Words(), w0+1)
	}
	sims, _ := p.Simulate(g)
	and := g.PO(0)
	last := sims[and.ID()][p.Words()-1]
	if last&1 != 1 {
		t.Error("pattern 0 (1,1) did not produce AND=1")
	}
	if last&0b110 != 0 {
		t.Errorf("patterns 1,2 produced AND=1: %b", last&0b110)
	}
	// A 65th pattern opens a second word.
	for i := 0; i < 61; i++ {
		p.AddPattern([]PIValue{{0, false}})
	}
	if p.Words() != w0+1 {
		t.Fatalf("words grew early: %d", p.Words())
	}
	p.AddPattern([]PIValue{{0, true}, {1, true}})
	if p.Words() != w0+2 {
		t.Fatalf("words = %d after 65 patterns, want %d", p.Words(), w0+2)
	}
}

func TestFindNonZeroPO(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	g.AddPO(aig.False)
	g.AddPO(g.And(a, b))
	p := NewPartial(dev(), 2, 1, 5)
	p.AddPattern([]PIValue{{0, true}, {1, true}})
	sims, _ := p.Simulate(g)
	po, assign := p.FindNonZeroPO(g, sims)
	if po != 1 {
		t.Fatalf("nonzero PO = %d, want 1", po)
	}
	in := make([]bool, 2)
	for _, av := range assign {
		in[av.Index] = av.Value
	}
	if out := g.Eval(in); !out[1] {
		t.Fatal("returned assignment does not set the PO")
	}
	// All-zero miter: no hit.
	g2 := aig.New()
	g2.AddPI()
	g2.AddPO(aig.False)
	p2 := NewPartial(dev(), 1, 4, 5)
	sims2, err := p2.Simulate(g2)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if po, _ := p2.FindNonZeroPO(g2, sims2); po != -1 {
		t.Fatalf("constant-zero miter reported PO %d", po)
	}
}

func TestExhaustiveProvesEquivalentPair(t *testing.T) {
	g, x1, x2, other := buildXorPair()
	sup := g.SupportOfMany([]int{x1.ID(), x2.ID()})
	w, err := BuildWindow(g, Spec{
		Roots:   []int32{int32(x1.ID()), int32(x2.ID()), int32(other.ID())},
		Inputs:  sup,
		PairIdx: []int32{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{
		{A: int32(x1.ID()), B: int32(x2.ID()), Compl: x1.IsCompl() != x2.IsCompl()},
		{A: int32(x1.ID()), B: int32(other.ID()), Compl: x1.IsCompl() != other.IsCompl()},
	}
	res := NewExhaustive(dev(), 0).CheckBatch(g, pairs, []*Window{w})
	if !res.Equal[0] {
		t.Error("equivalent XOR pair disproved")
	}
	if res.Equal[1] {
		t.Error("XOR == AND proved")
	}
	cex := res.CEXs[1]
	if cex == nil {
		t.Fatal("no CEX for disproved pair")
	}
	// Verify the CEX: under the assignment, x1 and other must differ.
	in := make([]bool, g.NumPIs())
	for j, id := range cex.Inputs {
		for i := 0; i < g.NumPIs(); i++ {
			if g.PIID(i) == int(id) {
				in[i] = cex.Values[j]
			}
		}
	}
	out := g.Eval(in)
	// Node values at the CEX: PO0 carries lit x1, PO2 carries lit other.
	nodeX1 := out[0] != x1.IsCompl()
	nodeOther := out[2] != other.IsCompl()
	// The hypothesis was node(x1) == node(other) ⊕ Compl; the CEX must
	// violate it.
	if (nodeX1 != nodeOther) == pairs[1].Compl {
		t.Fatalf("CEX does not disprove: node(x1)=%v node(other)=%v compl=%v", nodeX1, nodeOther, pairs[1].Compl)
	}
}

func TestExhaustiveComplementPair(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	// Node of x computes XNOR(a,b) (the Xor helper returns a complemented
	// literal); node u computes XOR(a,b) via a different decomposition.
	// The two nodes are complement-equivalent.
	x := g.Xor(a, b)
	u := g.And(g.And(a, b).Not(), g.And(a.Not(), b.Not()).Not())
	if x.ID() == u.ID() {
		t.Fatal("structures unexpectedly strashed together")
	}
	sup := g.SupportOfMany([]int{x.ID(), u.ID()})
	w, err := BuildWindow(g, Spec{Roots: []int32{int32(x.ID()), int32(u.ID())}, Inputs: sup, PairIdx: []int32{0}})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{{A: int32(x.ID()), B: int32(u.ID()), Compl: true}}
	res := NewExhaustive(dev(), 0).CheckBatch(g, pairs, []*Window{w})
	if !res.Equal[0] {
		t.Error("complement pair not proved")
	}
}

func TestExhaustiveConstantPair(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	// (a & b) & (a & !b) == const 0.
	zero := g.And(g.And(a, b), g.And(a, b.Not()))
	if zero != aig.False {
		sup := g.SupportOf(zero.ID())
		w, err := BuildWindow(g, Spec{Roots: []int32{int32(zero.ID())}, Inputs: sup, PairIdx: []int32{0}})
		if err != nil {
			t.Fatal(err)
		}
		pairs := []Pair{{A: 0, B: int32(zero.ID()), Compl: zero.IsCompl()}}
		res := NewExhaustive(dev(), 0).CheckBatch(g, pairs, []*Window{w})
		if !res.Equal[0] {
			t.Error("constant-zero node not proved")
		}
	}
	// A non-constant node against constant: must be disproved with CEX.
	n := g.And(a, b)
	sup := g.SupportOf(n.ID())
	w, err := BuildWindow(g, Spec{Roots: []int32{int32(n.ID())}, Inputs: sup, PairIdx: []int32{0}})
	if err != nil {
		t.Fatal(err)
	}
	res := NewExhaustive(dev(), 0).CheckBatch(g, []Pair{{A: 0, B: int32(n.ID())}}, []*Window{w})
	if res.Equal[0] {
		t.Error("AND proved constant zero")
	}
	if cex := res.CEXs[0]; cex == nil {
		t.Error("no CEX")
	} else {
		for j := range cex.Values {
			if !cex.Values[j] {
				t.Errorf("CEX value %d = false, AND needs all-ones", j)
			}
		}
	}
}

func TestExhaustiveMultiRound(t *testing.T) {
	// A 9-input window has an 8-word truth table; a budget of ~2 words
	// per slot forces multiple rounds. Results must match the unlimited
	// run.
	rng := rand.New(rand.NewSource(31))
	g := aig.New()
	var ins []aig.Lit
	for i := 0; i < 9; i++ {
		ins = append(ins, g.AddPI())
	}
	// Two identical-by-construction trees built in different orders.
	f1 := ins[0]
	for i := 1; i < 9; i++ {
		f1 = g.Xor(f1, ins[i])
	}
	f2 := ins[8]
	for i := 7; i >= 0; i-- {
		f2 = g.Xor(f2, ins[i])
	}
	// And a near-miss: same but one input complemented.
	f3 := ins[0].Not()
	for i := 1; i < 9; i++ {
		f3 = g.Xor(f3, ins[i])
	}
	_ = rng
	sup := g.SupportOfMany([]int{f1.ID(), f2.ID(), f3.ID()})
	if len(sup) != 9 {
		t.Fatalf("support = %d, want 9", len(sup))
	}
	build := func() *Window {
		w, err := BuildWindow(g, Spec{
			Roots:   []int32{int32(f1.ID()), int32(f2.ID()), int32(f3.ID())},
			Inputs:  sup,
			PairIdx: []int32{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	pairs := []Pair{
		{A: int32(f1.ID()), B: int32(f2.ID()), Compl: f1.IsCompl() != f2.IsCompl()},
		{A: int32(f1.ID()), B: int32(f3.ID()), Compl: f1.IsCompl() != f3.IsCompl()},
	}
	big := NewExhaustive(dev(), 1<<22).CheckBatch(g, pairs, []*Window{build()})
	w := build()
	small := NewExhaustive(dev(), w.NumSlots()*2).CheckBatch(g, pairs, []*Window{w})
	if big.Rounds != 1 {
		t.Fatalf("unlimited run used %d rounds", big.Rounds)
	}
	if small.Rounds < 4 {
		t.Fatalf("budgeted run used only %d rounds", small.Rounds)
	}
	for i := range pairs {
		if big.Equal[i] != small.Equal[i] {
			t.Fatalf("pair %d: verdicts differ across budgets", i)
		}
	}
	if !big.Equal[0] || big.Equal[1] {
		t.Fatalf("verdicts wrong: %v", big.Equal)
	}
}

func TestBuildWindowRejectsLeakyInputs(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	c := g.AddPI()
	ab := g.And(a, b)
	top := g.And(ab, c)
	// Inputs {ab} do not cut top from PI c.
	_, err := BuildWindow(g, Spec{Roots: []int32{int32(top.ID())}, Inputs: []int32{int32(ab.ID())}})
	if err == nil {
		t.Fatal("leaky window accepted")
	}
	// Inputs {ab, c} do cut it.
	w, err := BuildWindow(g, Spec{Roots: []int32{int32(top.ID())}, Inputs: []int32{int32(ab.ID()), int32(c.ID())}})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Nodes) != 1 {
		t.Fatalf("window nodes = %v, want just top", w.Nodes)
	}
}

func TestLocalFunctionCheckOverCut(t *testing.T) {
	// Paper Figure 2 scenario: two nodes equivalent in terms of a cut
	// {f,g,h} even though their global structures differ.
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	c := g.AddPI()
	f := g.And(a, b)
	h := g.And(b, c)
	// n = f & h; n2 computes the same local function over the cut {f,h}
	// through a different structure: n2 = !(!f | !h) = !( !(f) & 1 ...),
	// built as !(!f & !h) & (f & h) — redundant but equivalent.
	n := g.And(f, h)
	n2 := g.And(g.And(f.Not(), h.Not()).Not(), g.And(f, h))
	cut := []int32{int32(f.ID()), int32(h.ID())}
	w, err := BuildWindow(g, Spec{Roots: []int32{int32(n.ID()), int32(n2.ID())}, Inputs: cut, PairIdx: []int32{0}})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{{A: int32(n.ID()), B: int32(n2.ID()), Compl: n.IsCompl() != n2.IsCompl()}}
	res := NewExhaustive(dev(), 0).CheckBatch(g, pairs, []*Window{w})
	if !res.Equal[0] {
		t.Error("local function equivalence over cut not proved")
	}
}

func TestMergeSpecs(t *testing.T) {
	// The paper's example: inputs {a,b}, {a,b,c}, {a,c}... adapted:
	// five windows with inputs {1,2}, {1,2,3}, {1,5}, {1,6} and ks=3:
	// the first two merge; {1,5} and {1,6} merge ({1,5,6} has size 3).
	specs := []Spec{
		{Roots: []int32{10}, Inputs: []int32{1, 2}, PairIdx: []int32{0}},
		{Roots: []int32{11}, Inputs: []int32{1, 2, 3}, PairIdx: []int32{1}},
		{Roots: []int32{12}, Inputs: []int32{1, 5}, PairIdx: []int32{2}},
		{Roots: []int32{13}, Inputs: []int32{1, 6}, PairIdx: []int32{3}},
	}
	merged := MergeSpecs(specs, 3)
	if len(merged) != 2 {
		t.Fatalf("merged into %d windows, want 2", len(merged))
	}
	total := 0
	for _, s := range merged {
		if len(s.Inputs) > 3 {
			t.Fatalf("merged inputs %v exceed ks", s.Inputs)
		}
		total += len(s.PairIdx)
	}
	if total != 4 {
		t.Fatalf("pair indices lost: %d", total)
	}
}

func TestMergeSpecsRespectsKs(t *testing.T) {
	specs := []Spec{
		{Inputs: []int32{1, 2, 3}, PairIdx: []int32{0}},
		{Inputs: []int32{4, 5, 6}, PairIdx: []int32{1}},
	}
	merged := MergeSpecs(specs, 4)
	if len(merged) != 2 {
		t.Fatalf("disjoint windows merged past ks: %v", merged)
	}
}

func TestMergedWindowChecksSameVerdicts(t *testing.T) {
	g, x1, x2, other := buildXorPair()
	mkSpec := func(aLit, bLit aig.Lit, idx int32) Spec {
		return Spec{
			Roots:   []int32{int32(aLit.ID()), int32(bLit.ID())},
			Inputs:  g.SupportOfMany([]int{aLit.ID(), bLit.ID()}),
			PairIdx: []int32{idx},
		}
	}
	specs := []Spec{mkSpec(x1, x2, 0), mkSpec(x1, other, 1)}
	pairs := []Pair{
		{A: int32(x1.ID()), B: int32(x2.ID()), Compl: x1.IsCompl() != x2.IsCompl()},
		{A: int32(x1.ID()), B: int32(other.ID()), Compl: x1.IsCompl() != other.IsCompl()},
	}
	merged := MergeSpecs(specs, 16)
	if len(merged) != 1 {
		t.Fatalf("expected one merged window, got %d", len(merged))
	}
	w, err := BuildWindow(g, merged[0])
	if err != nil {
		t.Fatal(err)
	}
	res := NewExhaustive(dev(), 0).CheckBatch(g, pairs, []*Window{w})
	if !res.Equal[0] || res.Equal[1] {
		t.Fatalf("merged-window verdicts = %v, want [true false]", res.Equal)
	}
}
