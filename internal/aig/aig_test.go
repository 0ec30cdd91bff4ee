package aig

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	l := MakeLit(5, true)
	if l.ID() != 5 || !l.IsCompl() {
		t.Fatalf("MakeLit(5,true) decodes to (%d,%v)", l.ID(), l.IsCompl())
	}
	if l.Not() == l || l.Not().Not() != l {
		t.Fatal("Not is not an involution")
	}
	if l.Regular().IsCompl() {
		t.Fatal("Regular kept complement")
	}
	if l.NotIf(false) != l || l.NotIf(true) != l.Not() {
		t.Fatal("NotIf misbehaves")
	}
	if False.Not() != True {
		t.Fatal("constants are not complements")
	}
	if s := MakeLit(7, true).String(); s != "!7" {
		t.Fatalf("String = %q", s)
	}
}

func TestAndTrivialRules(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	if g.And(a, False) != False || g.And(False, b) != False {
		t.Error("x AND 0 != 0")
	}
	if g.And(a, True) != a || g.And(True, b) != b {
		t.Error("x AND 1 != x")
	}
	if g.And(a, a) != a {
		t.Error("x AND x != x")
	}
	if g.And(a, a.Not()) != False {
		t.Error("x AND !x != 0")
	}
	if g.NumAnds() != 0 {
		t.Errorf("trivial rules created %d nodes", g.NumAnds())
	}
}

func TestStrashingCanonical(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	ab := g.And(a, b)
	ba := g.And(b, a)
	if ab != ba {
		t.Error("AND is not commutative under strashing")
	}
	if g.NumAnds() != 1 {
		t.Errorf("strashing failed: %d nodes", g.NumAnds())
	}
	abn := g.And(a.Not(), b)
	if abn == ab {
		t.Error("different phases strash-collided")
	}
	if g.NumAnds() != 2 {
		t.Errorf("unexpected node count %d", g.NumAnds())
	}
}

func TestEvalGates(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	c := g.AddPI()
	g.AddPO(g.And(a, b))
	g.AddPO(g.Or(a, b))
	g.AddPO(g.Xor(a, b))
	g.AddPO(g.Xnor(a, b))
	g.AddPO(g.Mux(a, b, c))
	g.AddPO(g.Implies(a, b))
	for i := 0; i < 8; i++ {
		va, vb, vc := i&1 == 1, i&2 == 2, i&4 == 4
		out := g.Eval([]bool{va, vb, vc})
		mux := vc
		if va {
			mux = vb
		}
		want := []bool{va && vb, va || vb, va != vb, va == vb, mux, !va || vb}
		for j, w := range want {
			if out[j] != w {
				t.Fatalf("input %03b output %d = %v, want %v", i, j, out[j], w)
			}
		}
	}
}

func TestLevels(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	c := g.AddPI()
	ab := g.And(a, b)
	abc := g.And(ab, c)
	g.AddPO(abc)
	lv := g.Levels()
	if lv[a.ID()] != 0 || lv[ab.ID()] != 1 || lv[abc.ID()] != 2 {
		t.Fatalf("levels = %v", lv)
	}
	if g.Level() != 2 {
		t.Fatalf("network level = %d, want 2", g.Level())
	}
}

func TestSupportOf(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	c := g.AddPI()
	_ = c
	ab := g.And(a, b)
	sup := g.SupportOf(ab.ID())
	if len(sup) != 2 || int(sup[0]) != a.ID() || int(sup[1]) != b.ID() {
		t.Fatalf("support = %v", sup)
	}
	if s := g.SupportOf(a.ID()); len(s) != 1 || int(s[0]) != a.ID() {
		t.Fatalf("support of PI = %v", s)
	}
	if s := g.SupportOf(0); len(s) != 0 {
		t.Fatalf("support of constant = %v", s)
	}
}

func TestSupportsCapped(t *testing.T) {
	g := New()
	var lits []Lit
	for i := 0; i < 10; i++ {
		lits = append(lits, g.AddPI())
	}
	acc := lits[0]
	for i := 1; i < 10; i++ {
		acc = g.And(acc, lits[i])
	}
	small := g.And(lits[0], lits[1])
	other := g.And(lits[2], lits[3])
	s := g.SupportsCapped(4)
	if !s.Big(acc.ID()) {
		t.Error("wide conjunction not marked big under cap 4")
	}
	if s.Size(small.ID()) != 2 {
		t.Errorf("support size = %d, want 2", s.Size(small.ID()))
	}
	if s.Size(acc.ID()) != -1 {
		t.Errorf("big node size = %d, want -1", s.Size(acc.ID()))
	}
	u, ok := s.Union(small.ID(), other.ID())
	if !ok || len(u) != 4 {
		t.Errorf("union = %v ok=%v", u, ok)
	}
	if _, ok := s.Union(small.ID(), acc.ID()); ok {
		t.Error("union with big node succeeded")
	}
}

func TestConeNodes(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	c := g.AddPI()
	ab := g.And(a, b)
	bc := g.And(b, c)
	top := g.And(ab, bc)
	g.AddPO(top)
	cone := g.ConeNodes([]int{top.ID()}, nil)
	if len(cone) != 3 {
		t.Fatalf("cone has %d nodes, want 3", len(cone))
	}
	// Stop at ab: bc and top only.
	cone = g.ConeNodes([]int{top.ID()}, map[int]bool{ab.ID(): true})
	if len(cone) != 2 {
		t.Fatalf("stopped cone has %d nodes, want 2: %v", len(cone), cone)
	}
}

func TestRollback(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	ab := g.And(a, b)
	cp := g.Checkpoint()
	x := g.And(ab, a.Not())
	y := g.And(x, b.Not())
	_ = y
	g.Rollback(cp)
	if g.NumNodes() != cp {
		t.Fatalf("rollback left %d nodes, want %d", g.NumNodes(), cp)
	}
	// Strash entries must be gone: re-adding creates the same ids again.
	x2 := g.And(ab, a.Not())
	if x2.ID() != cp {
		t.Fatalf("re-added node has id %d, want %d", x2.ID(), cp)
	}
	// Pre-checkpoint structure must still strash.
	if g.And(a, b) != ab {
		t.Fatal("pre-checkpoint strash entry lost")
	}
}

func TestDoubleN(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	g.AddPO(g.Xor(a, b))
	d := DoubleN(g, 3)
	if d.NumPIs() != 16 || d.NumPOs() != 8 {
		t.Fatalf("tripled-double has %d PIs / %d POs", d.NumPIs(), d.NumPOs())
	}
	if d.NumAnds() < 8*g.NumAnds() {
		t.Fatalf("doubling lost logic: %d ands", d.NumAnds())
	}
	// Each copy must compute XOR of its own inputs.
	in := make([]bool, 16)
	in[2], in[3] = true, false // copy 1 inputs
	out := d.Eval(in)
	if out[1] != true {
		t.Fatal("copy 1 does not compute xor")
	}
}

func TestCopyIndependence(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	g.AddPO(g.And(a, b))
	c := g.Copy()
	c.AddPO(g.PO(0).Not())
	if g.NumPOs() != 1 || c.NumPOs() != 2 {
		t.Fatal("Copy shares PO slice")
	}
	c.And(a.Not(), b.Not())
	if g.NumNodes() == c.NumNodes() {
		t.Fatal("Copy shares node slice")
	}
}

func TestFanoutCounts(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	ab := g.And(a, b)
	g.AddPO(ab)
	g.AddPO(g.And(ab, a.Not()))
	fo := g.FanoutCounts()
	if fo[ab.ID()] != 2 {
		t.Fatalf("fanout of shared node = %d, want 2", fo[ab.ID()])
	}
	if fo[a.ID()] != 2 {
		t.Fatalf("fanout of PI a = %d, want 2", fo[a.ID()])
	}
}

// randomAIG builds a random AIG over nPI inputs with nAnd AND gates and one
// PO, used by property tests across packages.
func randomAIG(rng *rand.Rand, nPI, nAnd int) *AIG {
	g := New()
	lits := make([]Lit, 0, nPI+nAnd)
	for i := 0; i < nPI; i++ {
		lits = append(lits, g.AddPI())
	}
	for i := 0; i < nAnd; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	g.AddPO(lits[len(lits)-1].NotIf(rng.Intn(2) == 1))
	return g
}

func TestQuickStrashNoDuplicates(t *testing.T) {
	// Property: no two AND nodes have identical (f0,f1) pairs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAIG(rng, 5, 60)
		seen := make(map[[2]Lit]bool)
		for id := 1; id < g.NumNodes(); id++ {
			if !g.IsAnd(id) {
				continue
			}
			f0, f1 := g.Fanins(id)
			k := [2]Lit{f0, f1}
			if seen[k] {
				return false
			}
			seen[k] = true
			// Fanins must be ordered and acyclic.
			if f0 > f1 || f0.ID() >= id || f1.ID() >= id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAppendPreservesFunction(t *testing.T) {
	f := func(seed int64, inBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAIG(rng, 4, 20)
		d := Double(g)
		var in [4]bool
		for i := range in {
			in[i] = inBits&(1<<uint(i)) != 0
		}
		want := g.Eval(in[:])[0]
		both := d.Eval(append(append([]bool{}, in[:]...), in[:]...))
		return both[0] == want && both[1] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
