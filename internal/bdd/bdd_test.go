package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
)

func mustVar(t *testing.T, m *Manager, i int) Ref {
	t.Helper()
	r, err := m.Var(i)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTerminalsAndVar(t *testing.T) {
	m := New(3, 0)
	x := mustVar(t, m, 0)
	if x == False || x == True {
		t.Fatal("variable collapsed to terminal")
	}
	if m.Eval(x, []bool{true, false, false}) != true {
		t.Fatal("x0 under x0=1 is not 1")
	}
	if m.Eval(x, []bool{false, true, true}) != false {
		t.Fatal("x0 under x0=0 is not 0")
	}
	if _, err := m.Var(5); err == nil {
		t.Fatal("out-of-range variable accepted")
	}
}

func TestCanonicity(t *testing.T) {
	m := New(4, 0)
	a := mustVar(t, m, 0)
	b := mustVar(t, m, 1)
	ab, _ := m.And(a, b)
	ba, _ := m.And(b, a)
	if ab != ba {
		t.Fatal("AND not canonical")
	}
	// (a ∧ b) ∨ (a ∧ ¬b) == a
	nb, _ := m.Not(b)
	anb, _ := m.And(a, nb)
	sum, _ := m.Or(ab, anb)
	if sum != a {
		t.Fatal("Shannon recombination not reduced to the variable")
	}
	na, _ := m.Not(a)
	nna, _ := m.Not(na)
	if nna != a {
		t.Fatal("double negation not canonical")
	}
}

func TestXorAndAnySat(t *testing.T) {
	m := New(3, 0)
	a := mustVar(t, m, 0)
	b := mustVar(t, m, 1)
	x, _ := m.Xor(a, b)
	xx, _ := m.Xor(x, x)
	if xx != False {
		t.Fatal("f xor f != false")
	}
	assign, ok := m.AnySat(x)
	if !ok {
		t.Fatal("xor unsatisfiable")
	}
	if assign[0] == assign[1] {
		t.Fatalf("AnySat of xor returned %v", assign)
	}
	if _, ok := m.AnySat(False); ok {
		t.Fatal("false satisfiable")
	}
}

func TestNodeLimit(t *testing.T) {
	// A multiplier-like function under a tiny limit must abort.
	m := New(16, 64)
	acc := True
	var err error
	for i := 0; i < 8 && err == nil; i++ {
		var x, y, s Ref
		if x, err = m.Var(i); err != nil {
			break
		}
		if y, err = m.Var(15 - i); err != nil {
			break
		}
		if s, err = m.Xor(x, y); err != nil {
			break
		}
		acc, err = m.And(acc, s)
	}
	if err == nil {
		// The chain alone may fit; force more structure.
		for i := 0; i < 8 && err == nil; i++ {
			var x Ref
			if x, err = m.Var(i); err != nil {
				break
			}
			acc, err = m.Xor(acc, x)
		}
	}
	if err != ErrNodeLimit {
		t.Fatalf("expected ErrNodeLimit, got %v (nodes=%d)", err, m.NumNodes())
	}
}

func TestBuildAIGMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := aig.New()
		lits := []aig.Lit{}
		for i := 0; i < 5; i++ {
			lits = append(lits, g.AddPI())
		}
		for i := 0; i < 25; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			lits = append(lits, g.And(a, b))
		}
		root := lits[len(lits)-1].NotIf(rng.Intn(2) == 1)
		g.AddPO(root)
		m := New(g.NumPIs(), 0)
		refs, err := m.BuildAIG(g, []aig.Lit{root})
		if err != nil {
			t.Fatal(err)
		}
		for pat := 0; pat < 32; pat++ {
			in := make([]bool, 5)
			for i := range in {
				in[i] = (pat>>uint(i))&1 == 1
			}
			if m.Eval(refs[0], in) != g.Eval(in)[0] {
				t.Fatalf("trial %d pattern %d mismatch", trial, pat)
			}
		}
	}
}

func TestCheckMiterEquivalent(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	x1 := g.Xor(a, b)
	x2 := g.And(g.Or(a, b), g.And(a, b).Not())
	g.AddPO(g.Xor(x1, x2))
	equal, cex, err := CheckMiter(g, 0, nil)
	if err != nil || !equal {
		t.Fatalf("equal=%v cex=%v err=%v", equal, cex, err)
	}
}

func TestCheckMiterInequivalentGivesValidCEX(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	g.AddPO(g.Xor(g.Xor(a, b), g.And(a, b)))
	equal, cex, err := CheckMiter(g, 0, nil)
	if err != nil || equal {
		t.Fatalf("equal=%v err=%v", equal, err)
	}
	if out := g.Eval(cex); !out[0] {
		t.Fatalf("CEX %v does not fire the miter", cex)
	}
}

func TestCheckMiterNodeLimitUndecided(t *testing.T) {
	// A dense random miter with a tiny node budget must bail out.
	rng := rand.New(rand.NewSource(77))
	g := aig.New()
	lits := []aig.Lit{}
	for i := 0; i < 16; i++ {
		lits = append(lits, g.AddPI())
	}
	for i := 0; i < 300; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	g.AddPO(lits[len(lits)-1])
	_, _, err := CheckMiter(g, 32, nil)
	if err != ErrNodeLimit {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
}

func TestCheckMiterStopped(t *testing.T) {
	// The outputs of a 6-bit multiplier need thousands of BDD nodes, so a
	// closed stop channel is seen at the 256th allocation.
	g, err := gen.Multiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	if _, _, err := CheckMiter(g, 0, stop); err != nil {
		t.Fatalf("open stop channel: err = %v", err)
	}
	close(stop)
	if _, _, err := CheckMiter(g, 0, stop); err != ErrStopped {
		t.Fatalf("closed stop channel: err = %v, want ErrStopped", err)
	}
}

func TestQuickBDDAgainstEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(4, 0)
		refs := make([]Ref, 4)
		for i := range refs {
			r, err := m.Var(i)
			if err != nil {
				return false
			}
			refs[i] = r
		}
		// Shadow truth tables over 16 minterms.
		type fn struct {
			ref Ref
			tt  uint16
		}
		pool := make([]fn, 4)
		for i := range pool {
			var tt uint16
			for pat := 0; pat < 16; pat++ {
				if (pat>>uint(i))&1 == 1 {
					tt |= 1 << uint(pat)
				}
			}
			pool[i] = fn{refs[i], tt}
		}
		for step := 0; step < 20; step++ {
			a := pool[rng.Intn(len(pool))]
			b := pool[rng.Intn(len(pool))]
			var r Ref
			var tt uint16
			var err error
			switch rng.Intn(3) {
			case 0:
				r, err = m.And(a.ref, b.ref)
				tt = a.tt & b.tt
			case 1:
				r, err = m.Or(a.ref, b.ref)
				tt = a.tt | b.tt
			default:
				r, err = m.Xor(a.ref, b.ref)
				tt = a.tt ^ b.tt
			}
			if err != nil {
				return false
			}
			pool = append(pool, fn{r, tt})
		}
		for _, p := range pool {
			for pat := 0; pat < 16; pat++ {
				in := []bool{pat&1 == 1, pat&2 == 2, pat&4 == 4, pat&8 == 8}
				if m.Eval(p.ref, in) != ((p.tt>>uint(pat))&1 == 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
