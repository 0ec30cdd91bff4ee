package cnf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simsweep/internal/aig"
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
