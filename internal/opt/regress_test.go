package opt

import (
	"math/rand"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
)

// Regression: zero-cost rewriting of a control-fabric miter used to build
// mutually-cyclic replacement chains (each replacement's cover strashing
// into logic above the other), sending the final rebuild into an infinite
// loop. The fix combines an accept-time cone check with a cycle-breaking
// rebuild; this test locks both in.
func TestRewriteControlMiterTerminatesAndPreserves(t *testing.T) {
	g, err := gen.Control(gen.StyleAC97, 8, 97)
	if err != nil {
		t.Fatal(err)
	}
	g = aig.DoubleN(g, 1)
	o := Resyn2(g, nil)
	m, err := miter.Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	r := Rewrite(m, RewriteOptions{K: 8, ZeroCost: true})
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(88))
	for k := 0; k < 24; k++ {
		in := make([]bool, m.NumPIs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		a, b := m.Eval(in), r.Eval(in)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rewrite changed the miter function at output %d", i)
			}
		}
	}
	// Repeated zero-cost passes must stay stable too.
	r2 := Rewrite(r, RewriteOptions{K: 8, ZeroCost: true})
	if err := r2.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		in := make([]bool, m.NumPIs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		a, b := m.Eval(in), r2.Eval(in)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("second rewrite changed the function at output %d", i)
			}
		}
	}
}
