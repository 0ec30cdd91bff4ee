package opt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simsweep/internal/aig"
	"simsweep/internal/bdd"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
)

// sameFunction compares two AIGs on random patterns.
func sameFunction(t *testing.T, a, b *aig.AIG, trials int, seed int64) {
	t.Helper()
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("interface mismatch: %d/%d PIs %d/%d POs", a.NumPIs(), b.NumPIs(), a.NumPOs(), b.NumPOs())
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < trials; k++ {
		in := make([]bool, a.NumPIs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		oa, ob := a.Eval(in), b.Eval(in)
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("trial %d output %d differs", k, i)
			}
		}
	}
}

func TestBalancePreservesFunctionAndReducesDepth(t *testing.T) {
	// A long AND chain must become logarithmic.
	g := aig.New()
	acc := g.AddPI()
	for i := 0; i < 31; i++ {
		acc = g.And(acc, g.AddPI())
	}
	g.AddPO(acc)
	if g.Level() != 31 {
		t.Fatalf("chain level = %d", g.Level())
	}
	b := Balance(g)
	sameFunction(t, g, b, 64, 1)
	if b.Level() > 6 {
		t.Fatalf("balanced level = %d, want ≤ 6", b.Level())
	}
}

func TestBalancePreservesSharing(t *testing.T) {
	g, err := gen.Adder(8)
	if err != nil {
		t.Fatal(err)
	}
	b := Balance(g)
	sameFunction(t, g, b, 128, 2)
	if b.NumAnds() > 2*g.NumAnds() {
		t.Fatalf("balance blew up: %d -> %d ANDs", g.NumAnds(), b.NumAnds())
	}
}

func TestRewritePreservesFunction(t *testing.T) {
	for _, k := range []int{4, 8} {
		g, err := gen.Multiplier(5)
		if err != nil {
			t.Fatal(err)
		}
		r := Rewrite(g, RewriteOptions{K: k})
		sameFunction(t, g, r, 128, int64(k))
	}
}

func TestRewriteZeroCostChangesStructure(t *testing.T) {
	g, err := gen.Multiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	r := Rewrite(g, RewriteOptions{K: 8, ZeroCost: true})
	sameFunction(t, g, r, 128, 3)
	if r.NumAnds() > g.NumAnds() {
		t.Fatalf("zero-cost rewrite grew the graph: %d -> %d", g.NumAnds(), r.NumAnds())
	}
}

func TestResyn2OnBenchmarks(t *testing.T) {
	for _, name := range []string{"adder", "multiplier", "voter"} {
		scale := 6
		if name == "voter" {
			scale = 2
		}
		g, err := gen.Benchmark(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		o := Resyn2(g, nil)
		sameFunction(t, g, o, 128, 4)
		if o.NumAnds() > g.NumAnds()+g.NumAnds()/10 {
			t.Fatalf("%s: resyn2 grew the graph %d -> %d", name, g.NumAnds(), o.NumAnds())
		}
		if o.NumAnds() == g.NumAnds() && o.Level() == g.Level() {
			t.Logf("%s: resyn2 left stats unchanged (%s)", name, o.Stats())
		}
	}
}

func TestResyn2FormallyEquivalent(t *testing.T) {
	// Close the loop with an independent engine: BDD-check the miter of
	// original vs optimized.
	g, err := gen.Adder(6)
	if err != nil {
		t.Fatal(err)
	}
	o := Resyn2(g, nil)
	m, err := miter.Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	equal, cex, err := bdd.CheckMiter(m, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equal {
		t.Fatalf("resyn2 changed the function; cex = %v", cex)
	}
}

func TestRewriteProducesDifferentStructure(t *testing.T) {
	// The whole point of the optimized copy: structurally different,
	// functionally identical. Require some structural movement.
	g, err := gen.Multiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	o := Resyn2(g, nil)
	if o.NumAnds() == g.NumAnds() && o.Level() == g.Level() {
		// Same stats are suspicious but possible; compare node arrays.
		same := true
		for id := 1; id < g.NumNodes() && id < o.NumNodes(); id++ {
			if g.IsAnd(id) != o.IsAnd(id) {
				same = false
				break
			}
			if g.IsAnd(id) {
				a0, a1 := g.Fanins(id)
				b0, b1 := o.Fanins(id)
				if a0 != b0 || a1 != b1 {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatal("resyn2 returned a structurally identical graph")
		}
	}
}

func TestLocalTT(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	c := g.AddPI()
	n := g.And(g.And(a, b), c)
	table, ok := localTT(g, n.ID(), []int32{int32(a.ID()), int32(b.ID()), int32(c.ID())})
	if !ok {
		t.Fatal("localTT failed")
	}
	if table.CountOnes() != 1 || !table.Bit(7) {
		t.Fatalf("local TT of 3-AND = %s", table)
	}
	// Leaves that do not cut the cone must be rejected.
	if _, ok := localTT(g, n.ID(), []int32{int32(a.ID())}); ok {
		t.Fatal("non-cut leaves accepted")
	}
}

func TestQuickRewritePreservesRandomCircuits(t *testing.T) {
	f := func(seed int64, zeroCost bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := aig.New()
		var lits []aig.Lit
		for i := 0; i < 5; i++ {
			lits = append(lits, g.AddPI())
		}
		for i := 0; i < 40; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			lits = append(lits, g.And(a, b))
		}
		for i := 0; i < 3; i++ {
			g.AddPO(lits[len(lits)-1-i].NotIf(rng.Intn(2) == 1))
		}
		r := Rewrite(g, RewriteOptions{K: 4 + rng.Intn(5), ZeroCost: zeroCost})
		for pat := 0; pat < 32; pat++ {
			in := make([]bool, 5)
			for i := range in {
				in[i] = (pat>>uint(i))&1 == 1
			}
			oa, ob := g.Eval(in), r.Eval(in)
			for i := range oa {
				if oa[i] != ob[i] {
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
