package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/core"
	"simsweep/internal/cuts"
	"simsweep/internal/difftest"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/par"
)

// witnessed applies mutator mi (falling through to the next ones) to o
// until a mutant differs from g on one of 256 random input vectors, the
// way the benchmark ledger draws its bughunt workload: 16 draws per
// mutator from the stream 1000+stream.
func witnessed(t *testing.T, g, o *aig.AIG, mi int, stream int64) (*aig.AIG, string) {
	t.Helper()
	muts := difftest.Mutators()
	rng := rand.New(rand.NewSource(1000 + stream))
	in := make([]bool, g.NumPIs())
	for k := 0; k < len(muts); k++ {
		m := muts[(mi+k)%len(muts)]
		for d := 0; d < 16; d++ {
			mut, ok := m.Apply(o, rng)
			if !ok {
				continue
			}
			for v := 0; v < 256; v++ {
				for i := range in {
					in[i] = rng.Intn(2) == 1
				}
				if differs(g, mut, in) {
					return mut, m.Name
				}
			}
		}
	}
	t.Fatalf("no witnessed mutant for mutator %d", mi)
	return nil, ""
}

// differs reports whether some output of a and b disagrees under in.
func differs(a, b *aig.AIG, in []bool) bool {
	oa, ob := a.Eval(in), b.Eval(in)
	for i := range oa {
		if oa[i] != ob[i] {
			return true
		}
	}
	return false
}

// TestWitnessedMutantsDisprovedByRandomSweep pins disproof-first checking
// on the ledger's bughunt bases multiplier-8x1 and hyp-6x1: every witnessed
// mutant, one per difftest mutator, is refuted by the random PO sweep that
// opens the P phase — one phase, one disproof, not a single exhaustively
// simulated word — and its counter-example replays through aig.Eval.
func TestWitnessedMutantsDisprovedByRandomSweep(t *testing.T) {
	dev := par.NewDevice(2)
	defer dev.Close()
	for _, base := range []struct {
		name   string
		scale  int
		stream int64 // position of the base in the ledger's bughunt list
	}{{"hyp", 6, 0}, {"multiplier", 8, 1}} {
		g, err := gen.Benchmark(base.name, base.scale)
		if err != nil {
			t.Fatal(err)
		}
		g = aig.DoubleN(g, 1)
		o := opt.Resyn2(g, nil)
		nmut := len(difftest.Mutators())
		for mi := 0; mi < nmut; mi++ {
			mut, mname := witnessed(t, g, o, mi, base.stream*int64(nmut)+int64(mi))
			m, err := miter.Build(g, mut)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("%s-%dx1/%s/seed%d", base.name, base.scale, mname, seed)
				cfg := core.DefaultConfig()
				cfg.Dev = dev
				cfg.Seed = seed
				res := core.CheckMiter(m, cfg)
				if res.Outcome != core.NotEquivalent {
					t.Fatalf("%s: outcome %v, want NotEquivalent", label, res.Outcome)
				}
				if len(res.Phases) != 1 || res.Phases[0].Kind != core.PhaseP || res.Phases[0].Disproved != 1 {
					t.Fatalf("%s: phases %+v, want one P phase with one disproof", label, res.Phases)
				}
				if res.Stats.WordsSimulated != 0 || res.Stats.Rounds != 0 {
					t.Fatalf("%s: %d words in %d exhaustive rounds before the disproof",
						label, res.Stats.WordsSimulated, res.Stats.Rounds)
				}
				if !differs(g, mut, res.CEX) {
					t.Fatalf("%s: counter-example does not replay", label)
				}
			}
		}
	}
}

// TestLiveAndsMatchesClean pins the mark-pass AND count to the rebuild it
// replaces: on benchmark families and their miters, on the engine's
// reduced miters, on mutants that leave dangling logic and on the
// differential harness's random miters, liveAnds equals the AND count of
// miter.Clean.
func TestLiveAndsMatchesClean(t *testing.T) {
	check := func(label string, g *aig.AIG) {
		t.Helper()
		clean, _ := miter.Clean(g)
		if got, want := core.LiveAnds(g), clean.NumAnds(); got != want {
			t.Fatalf("%s: liveAnds = %d, miter.Clean keeps %d", label, got, want)
		}
	}
	dev := par.NewDevice(2)
	defer dev.Close()
	rng := rand.New(rand.NewSource(5))
	for _, name := range gen.Names() {
		g, err := gen.Benchmark(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		check(name, g)
		m, err := miter.Build(g, opt.Resyn2(g, dev))
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/miter", m)
		for _, mu := range difftest.Mutators() {
			if mut, ok := mu.Apply(g, rng); ok {
				check(name+"/"+mu.Name, mut)
				nm, err := miter.Build(g, mut)
				if err != nil {
					t.Fatal(err)
				}
				check(name+"/"+mu.Name+"/miter", nm)
			}
		}
		// A partially reduced miter: the engine stopped after P and G.
		cfg := core.DefaultConfig()
		cfg.Dev = dev
		cfg.MaxLocalPhases = 1
		cfg.LocalPasses = []cuts.Pass{}
		res := core.CheckMiter(m, cfg)
		check(name+"/reduced", res.Reduced)
	}
	for i := 0; i < 60; i++ {
		c, err := difftest.GenerateCase(dev, 11, i, 12)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("difftest-%d/%s", i, c.Kind), c.Miter)
	}
}
