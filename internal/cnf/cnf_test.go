package cnf

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/sat"
)

func TestEncoderMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		g := aig.New()
		lits := []aig.Lit{}
		for i := 0; i < 5; i++ {
			lits = append(lits, g.AddPI())
		}
		for i := 0; i < 30; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			lits = append(lits, g.And(a, b))
		}
		root := lits[len(lits)-1]
		g.AddPO(root)

		s := sat.New()
		enc := NewEncoder(g, s)
		rootLit := enc.LitOf(root)

		// For every PI assignment, the encoding restricted to that
		// assignment must force the root to the Eval value.
		for m := 0; m < 32; m++ {
			in := make([]bool, 5)
			assumps := []sat.Lit{}
			for i := range in {
				in[i] = (m>>uint(i))&1 == 1
				v := enc.VarOf(g.PIID(i))
				if v < 0 {
					continue // PI not in the cone
				}
				assumps = append(assumps, sat.MkLit(int(v), !in[i]))
			}
			want := g.Eval(in)[0]
			// root forced to want: asserting the opposite is UNSAT.
			st := s.Solve(append(assumps, rootLit.Neg())...)
			if want && st != sat.Unsat {
				t.Fatalf("trial %d m=%d: root should be forced true, got %v", trial, m, st)
			}
			st = s.Solve(append(assumps, rootLit)...)
			if !want && st != sat.Unsat {
				t.Fatalf("trial %d m=%d: root should be forced false, got %v", trial, m, st)
			}
		}
	}
}

func TestConstantNodePinned(t *testing.T) {
	g := aig.New()
	g.AddPI()
	g.AddPO(aig.True)
	s := sat.New()
	enc := NewEncoder(g, s)
	l := enc.LitOf(aig.True)
	if st := s.Solve(l.Neg()); st != sat.Unsat {
		t.Fatalf("constant true not pinned: %v", st)
	}
	if st := s.Solve(l); st != sat.Sat {
		t.Fatalf("constant true unsatisfiable: %v", st)
	}
}

func TestXorAssumptionSemantics(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	x1 := g.Xor(a, b)
	x2 := g.And(g.Or(a, b), g.And(a, b).Not()) // also XOR
	y := g.And(a, b)                           // not XOR
	g.AddPO(x1)

	s := sat.New()
	enc := NewEncoder(g, s)
	if st := s.Solve(enc.XorAssumption(x1, x2)); st != sat.Unsat {
		t.Fatalf("equivalent pair XOR satisfiable: %v", st)
	}
	st := s.Solve(enc.XorAssumption(x1, y))
	if st != sat.Sat {
		t.Fatalf("inequivalent pair XOR unsatisfiable: %v", st)
	}
	// The model must be a genuine counter-example.
	va, _ := enc.Model(a.ID())
	vb, _ := enc.Model(b.ID())
	in := []bool{va, vb}
	out := g.Eval(in)
	gotX1 := out[0]
	gotY := va && vb
	if gotX1 == gotY {
		t.Fatalf("model (%v,%v) is not a counter-example", va, vb)
	}
}

// TestModelInputsReadsWitness checks the PI vector read back from a model:
// indexed by PI position, a witness of the solved literal, and false for a
// PI the query never encoded.
func TestModelInputsReadsWitness(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	g.AddPI() // outside every query's cone
	po := g.And(a, b.Not())
	g.AddPO(po)

	s := sat.New()
	enc := NewEncoder(g, s)
	if st := s.Solve(enc.LitOf(po)); st != sat.Sat {
		t.Fatalf("a AND NOT b unsatisfiable: %v", st)
	}
	in := enc.ModelInputs()
	if len(in) != 3 || !in[0] || in[1] || in[2] {
		t.Fatalf("ModelInputs = %v, want [true false false]", in)
	}
	if !g.Eval(in)[0] {
		t.Fatalf("model inputs %v do not satisfy the PO", in)
	}
}

func TestLazyConeOfInfluence(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	c := g.AddPI()
	small := g.And(a, b)
	big := g.And(small, c)
	g.AddPO(big)
	s := sat.New()
	enc := NewEncoder(g, s)
	enc.LitOf(small)
	if enc.VarOf(c.ID()) >= 0 {
		t.Fatal("encoding of small cone touched unrelated PI")
	}
	if enc.VarOf(big.ID()) >= 0 {
		t.Fatal("encoding of small cone touched its fanout")
	}
	enc.LitOf(big)
	if enc.VarOf(c.ID()) < 0 {
		t.Fatal("full cone not encoded")
	}
}

func TestQuickEncoderEquivalenceOracle(t *testing.T) {
	// Property: XorAssumption(root1, root2) is UNSAT iff the two roots
	// compute the same function (checked by enumeration).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := aig.New()
		lits := []aig.Lit{}
		for i := 0; i < 4; i++ {
			lits = append(lits, g.AddPI())
		}
		for i := 0; i < 20; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			lits = append(lits, g.And(a, b))
		}
		r1 := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		r2 := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		g.AddPO(r1)
		g.AddPO(r2)
		same := true
		for m := 0; m < 16; m++ {
			in := []bool{m&1 == 1, m&2 == 2, m&4 == 4, m&8 == 8}
			out := g.Eval(in)
			if out[0] != out[1] {
				same = false
				break
			}
		}
		s := sat.New()
		enc := NewEncoder(g, s)
		st := s.Solve(enc.XorAssumption(r1, r2))
		return (st == sat.Unsat) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// checkAgainstEval encodes the POs of g in order on one encoder, so later
// cones meet the variables and folds of earlier ones, and checks both
// polarities of every PO two ways: under assumptions that fix the encoded
// PIs to a random vector, the PO literal is satisfiable exactly when Eval
// makes it true; and the ModelInputs of a Sat answer for the literal alone
// replay through Eval to make it true.
func checkAgainstEval(t *testing.T, name string, g *aig.AIG, rng *rand.Rand) {
	t.Helper()
	s := sat.New()
	enc := NewEncoder(g, s)
	in := make([]bool, g.NumPIs())
	for i := 0; i < g.NumPOs(); i++ {
		po := enc.LitOf(g.PO(i))
		for _, neg := range []bool{false, true} {
			q := po
			if neg {
				q = q.Neg()
			}
			for v := 0; v < 4; v++ {
				assumps := []sat.Lit{q}
				for j := range in {
					in[j] = rng.Intn(2) == 1
					if x := enc.VarOf(g.PIID(j)); x >= 0 {
						assumps = append(assumps, sat.MkLit(int(x), !in[j]))
					}
				}
				want := g.Eval(in)[i] != neg
				if got := s.Solve(assumps...); (got == sat.Sat) != want || got == sat.Unknown {
					t.Fatalf("%s: PO %d neg=%v under %v: %v, Eval says satisfiable=%v", name, i, neg, in, got, want)
				}
			}
			switch st := s.Solve(q); st {
			case sat.Sat:
				if model := enc.ModelInputs(); g.Eval(model)[i] == neg {
					t.Fatalf("%s: PO %d neg=%v: model %v does not replay through Eval", name, i, neg, model)
				}
			case sat.Unknown:
				t.Fatalf("%s: PO %d neg=%v: %v", name, i, neg, st)
			}
		}
	}
}

// TestEncodingMatchesEvalOnMuxXorGraphs checks the MUX/XOR and supergate
// encoding against Eval where those shapes are dense: small control
// fabrics and their miters against resyn2, XOR chains and trees, ITE trees
// that share their selects, and random graphs of reconvergent single-fanout
// AND trees.
func TestEncodingMatchesEvalOnMuxXorGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, fab := range []struct {
		name  string
		style gen.ControlStyle
		seed  int64
	}{{"ac97", gen.StyleAC97, 97}, {"vga", gen.StyleVGA, 64}} {
		for words := 1; words <= 2; words++ {
			g, err := gen.Control(fab.style, words, fab.seed)
			if err != nil {
				t.Fatal(err)
			}
			m, err := miter.Build(g, opt.Resyn2(g, nil))
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s-w%d", fab.name, words)
			checkAgainstEval(t, name, g, rng)
			checkAgainstEval(t, name+" miter", m, rng)
		}
	}
	checkAgainstEval(t, "xor chains", xorChains(12), rng)
	checkAgainstEval(t, "shared-select ITE trees", iteTrees(3, 4), rng)
	for seed := int64(0); seed < 20; seed++ {
		checkAgainstEval(t, fmt.Sprintf("random trees %d", seed), randomTrees(rand.New(rand.NewSource(seed)), 8, 40), rng)
	}
}

// xorChains is the parity of n PIs three ways, as POs: a chain, its
// complement, and a balanced tree.
func xorChains(n int) *aig.AIG {
	g := aig.New()
	pis := make([]aig.Lit, n)
	for i := range pis {
		pis[i] = g.AddPI()
	}
	chain := pis[0]
	for _, p := range pis[1:] {
		chain = g.Xor(chain, p)
	}
	level := append([]aig.Lit(nil), pis...)
	for len(level) > 1 {
		var next []aig.Lit
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, g.Xor(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	g.AddPO(chain)
	g.AddPO(chain.Not())
	g.AddPO(level[0])
	return g
}

// iteTrees builds the given number of ITE trees, each selecting one of
// 2^sels data inputs by the same select PIs; a data input is a PI or an
// AND of two PIs.
func iteTrees(sels, trees int) *aig.AIG {
	g := aig.New()
	sel := make([]aig.Lit, sels)
	for i := range sel {
		sel[i] = g.AddPI()
	}
	for k := 0; k < trees; k++ {
		level := make([]aig.Lit, 1<<sels)
		for i := range level {
			level[i] = g.AddPI()
			if i%3 == 1 {
				level[i] = g.And(level[i], level[i-1].Not())
			}
		}
		for _, s := range sel {
			next := make([]aig.Lit, len(level)/2)
			for i := range next {
				next[i] = g.Mux(s, level[2*i+1], level[2*i])
			}
			level = next
		}
		g.AddPO(level[0].NotIf(k%2 == 1))
	}
	return g
}

// randomTrees builds the given number of AND trees, each over 2–6 random
// earlier literals, so their inner nodes have one fanout and their leaves
// reconverge; a few edges are complemented. The last eight trees are the
// POs.
func randomTrees(rng *rand.Rand, pis, trees int) *aig.AIG {
	g := aig.New()
	lits := make([]aig.Lit, 0, pis+trees)
	for i := 0; i < pis; i++ {
		lits = append(lits, g.AddPI())
	}
	for k := 0; k < trees; k++ {
		leaves := make([]aig.Lit, 2+rng.Intn(5))
		for i := range leaves {
			leaves[i] = lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		}
		for len(leaves) > 1 {
			n := len(leaves)
			leaves = append(leaves[:n-2], g.And(leaves[n-2], leaves[n-1]).NotIf(rng.Intn(5) == 0))
		}
		lits = append(lits, leaves[0])
	}
	for _, l := range lits[len(lits)-8:] {
		g.AddPO(l)
	}
	return g
}

// TestXorAssumptionOnFoldedNode asks about nodes that earlier POs left
// without a variable, an AND folded into a supergate and a MUX's inner AND:
// each is encoded on its own and still proves an equivalent pair and
// refutes an inequivalent one with a genuine counter-example.
func TestXorAssumptionOnFoldedNode(t *testing.T) {
	g := aig.New()
	a, b, c, d := g.AddPI(), g.AddPI(), g.AddPI(), g.AddPI()
	inner := g.And(a, g.And(b, c)) // folded into root's supergate
	root := g.And(inner, d)        // supergate {a, b, c, d}
	alt := g.And(g.And(a, b), c)   // a ∧ b ∧ c, built the other way
	mux := g.Mux(d, g.And(a, c), b)
	arm := g.And(d, g.And(a, c))    // the MUX's inner AND
	armAlt := g.And(g.And(a, d), c) // d ∧ a ∧ c, built the other way
	g.AddPO(root)
	g.AddPO(mux)
	g.AddPO(alt)
	g.AddPO(armAlt)

	s := sat.New()
	enc := NewEncoder(g, s)
	enc.LitOf(root)
	enc.LitOf(mux)
	for _, n := range []aig.Lit{inner, arm} {
		if enc.VarOf(n.ID()) >= 0 {
			t.Fatalf("node %d has a variable; the test needs it folded", n.ID())
		}
	}
	for _, pair := range [][2]aig.Lit{{inner, alt}, {arm, armAlt}, {armAlt.Not(), arm.Not()}} {
		if st := s.Solve(enc.XorAssumption(pair[0], pair[1])); st != sat.Unsat {
			t.Fatalf("equivalent pair %v: %v, want UNSAT", pair, st)
		}
	}
	for _, pair := range [][2]aig.Lit{{inner, g.And(a, b)}, {arm, inner}, {inner.Not(), alt}, {arm, g.And(a, c)}} {
		if st := s.Solve(enc.XorAssumption(pair[0], pair[1])); st != sat.Sat {
			t.Fatalf("inequivalent pair %v: %v, want SAT", pair, st)
		}
		in := enc.ModelInputs()
		val := make([]bool, g.NumNodes())
		for i, v := range in {
			val[g.PIID(i)] = v
		}
		for id := 1; id < g.NumNodes(); id++ {
			if g.IsAnd(id) {
				f0, f1 := g.Fanins(id)
				val[id] = aig.LitValue(val, f0) && aig.LitValue(val, f1)
			}
		}
		if aig.LitValue(val, pair[0]) == aig.LitValue(val, pair[1]) {
			t.Fatalf("model %v does not separate %v", in, pair)
		}
	}
}

// TestEncodingCounts pins the folding by the variables it leaves: a
// single-fanout AND tree is one variable over its leaves, a MUX one over
// select and data, and an XOR miter PO one over its two inputs.
func TestEncodingCounts(t *testing.T) {
	count := func(build func(g *aig.AIG) aig.Lit) int {
		g := aig.New()
		g.AddPO(build(g))
		s := sat.New()
		NewEncoder(g, s).LitOf(g.PO(0))
		return s.NumVars()
	}
	tree := count(func(g *aig.AIG) aig.Lit {
		level := make([]aig.Lit, 8)
		for i := range level {
			level[i] = g.AddPI()
		}
		for len(level) > 1 {
			var next []aig.Lit
			for i := 0; i < len(level); i += 2 {
				next = append(next, g.And(level[i], level[i+1]))
			}
			level = next
		}
		return level[0]
	})
	mux := count(func(g *aig.AIG) aig.Lit { return g.Mux(g.AddPI(), g.AddPI(), g.AddPI()) })
	xor := count(func(g *aig.AIG) aig.Lit { return g.Xor(g.AddPI(), g.AddPI()) })
	if tree != 9 || mux != 4 || xor != 3 {
		t.Fatalf("variables: 8-input AND tree %d (want 9), MUX %d (want 4), XOR %d (want 3)", tree, mux, xor)
	}
}

// TestLongChainIsOneSupergate encodes a single-fanout AND chain over 2^17
// PIs: one variable over all of them, solved both ways, in time linear in
// the chain (deduplication and sorting of its long clause included).
func TestLongChainIsOneSupergate(t *testing.T) {
	const n = 1 << 17
	g := aig.NewSized(2 * n)
	chain := g.AddPI()
	for i := 1; i < n; i++ {
		chain = g.And(chain, g.AddPI())
	}
	g.AddPO(chain)

	start := time.Now()
	s := sat.New()
	enc := NewEncoder(g, s)
	q := enc.LitOf(chain)
	if s.NumVars() != n+1 {
		t.Fatalf("variables = %d, want %d (the PIs and the root)", s.NumVars(), n+1)
	}
	if st := s.Solve(q); st != sat.Sat {
		t.Fatalf("chain true: %v", st)
	}
	for i, v := range enc.ModelInputs() {
		if !v {
			t.Fatalf("chain true with PI %d false", i)
		}
	}
	if st := s.Solve(q.Neg()); st != sat.Sat {
		t.Fatalf("chain false: %v", st)
	}
	if g.Eval(enc.ModelInputs())[0] {
		t.Fatal("model of the chain's complement makes it true")
	}
	if took := time.Since(start); took > raceSlowdown*time.Second {
		t.Fatalf("encoding and solving took %v", took)
	}
}
