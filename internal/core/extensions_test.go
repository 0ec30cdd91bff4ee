package core

// Tests of the §V extensions: distance-1 CEX simulation, adaptive pass
// disabling, and the pattern-bank export used for EC transfer.

import (
	"math/rand"
	"testing"

	"simsweep/internal/cuts"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/satsweep"
)

func TestDistance1CEXStillCorrect(t *testing.T) {
	g, err := gen.Multiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	for _, d1 := range []bool{false, true} {
		cfg := smallConfig()
		cfg.Distance1CEX = d1
		res := CheckMiter(mustMiter(t, g, o), cfg)
		if res.Outcome != miter.Equivalent {
			t.Fatalf("distance1=%v: outcome %v", d1, res.Outcome)
		}
	}
	// And on an inequivalent pair, distance-1 must not break disproofs.
	bad := o.Copy()
	bad.SetPO(1, bad.PO(1).Not())
	cfg := smallConfig()
	cfg.Distance1CEX = true
	m := mustMiter(t, g, bad)
	res := CheckMiter(m, cfg)
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	fired := false
	for _, v := range m.Eval(res.CEX) {
		fired = fired || v
	}
	if !fired {
		t.Fatal("CEX invalid under distance-1")
	}
}

func TestAdaptivePassesStillProve(t *testing.T) {
	g, err := gen.Multiplier(9)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	cfg := smallConfig()
	cfg.KP, cfg.Kp, cfg.Kg = 10, 6, 6 // force L phases to work
	cfg.AdaptivePasses = true
	res := CheckMiter(mustMiter(t, g, o), cfg)
	if res.Outcome == miter.NotEquivalent {
		t.Fatal("adaptive run disproved an equivalent miter")
	}
	lPhases := 0
	for _, ph := range res.Phases {
		if ph.Kind == PhaseL {
			lPhases++
		}
	}
	if lPhases == 0 {
		t.Fatal("no L phases ran")
	}
}

func TestAdaptivePassesSkipIneffective(t *testing.T) {
	// With a single configured pass that proves nothing, the adaptive
	// flow must converge quickly (the pass gets disabled, phases end).
	g, err := gen.Multiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	cfg := smallConfig()
	cfg.KP, cfg.Kp, cfg.Kg = 4, 4, 4
	cfg.Kl = 2 // cuts this small rarely prove anything
	cfg.AdaptivePasses = true
	cfg.MaxLocalPhases = 8
	cfg.LocalPasses = []cuts.Pass{cuts.PassFanout}
	res := CheckMiter(mustMiter(t, g, o), cfg)
	if res.Outcome == miter.NotEquivalent {
		t.Fatal("wrong disproof")
	}
}

func TestGuidedPatternsStillCorrect(t *testing.T) {
	// A voter has exactly the bias profile guided patterns target
	// (popcount comparators rarely fire); correctness must hold both
	// ways, and on a corrupted copy the disproof must survive.
	g, err := gen.Voter(17)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	cfg := smallConfig()
	cfg.GuidedPatterns = true
	res := CheckMiter(mustMiter(t, g, o), cfg)
	if res.Outcome == miter.NotEquivalent {
		t.Fatal("guided-pattern run disproved an equivalent miter")
	}
	bad := o.Copy()
	bad.SetPO(0, bad.PO(0).Not())
	m := mustMiter(t, g, bad)
	res = CheckMiter(m, cfg)
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	fired := false
	for _, v := range m.Eval(res.CEX) {
		fired = fired || v
	}
	if !fired {
		t.Fatal("CEX invalid with guided patterns")
	}
}

func TestInterleaveRewriteSoundAndHelps(t *testing.T) {
	g, err := gen.Multiplier(9)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	m := mustMiter(t, g, o)
	// Starved thresholds leave work for the L phases; compare final
	// reductions with and without rewrite interleaving.
	run := func(interleave bool) Result {
		cfg := smallConfig()
		cfg.KP, cfg.Kp, cfg.Kg = 8, 6, 6
		cfg.Kl = 6
		cfg.MaxLocalPhases = 6
		cfg.InterleaveRewrite = interleave
		return CheckMiter(m, cfg)
	}
	base := run(false)
	inter := run(true)
	if base.Outcome == miter.NotEquivalent || inter.Outcome == miter.NotEquivalent {
		t.Fatal("wrong disproof")
	}
	// Soundness of the rewrite step: the reduced miter still computes
	// the original function.
	rng := rand.New(rand.NewSource(77))
	for k := 0; k < 32; k++ {
		in := make([]bool, m.NumPIs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		a, b := m.Eval(in), inter.Reduced.Eval(in)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("interleaved rewrite changed the miter function")
			}
		}
	}
	t.Logf("reduction: base %.1f%%, interleaved %.1f%%",
		base.Stats.ReductionPercent(), inter.Stats.ReductionPercent())
}

func TestPatternBankExportedAndTransfers(t *testing.T) {
	// Build a miter the engine cannot finish (starved thresholds), then
	// seed the SAT sweep with the exported bank: the sweep must still
	// decide correctly, and the bank must be well-formed.
	g, err := gen.Multiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	m := mustMiter(t, g, o)
	cfg := smallConfig()
	cfg.KP, cfg.Kp, cfg.Kg = 6, 6, 6
	cfg.MaxLocalPhases = 1
	res := CheckMiter(m, cfg)
	if res.PatternBank == nil {
		t.Fatal("no pattern bank exported")
	}
	if len(res.PatternBank) != m.NumPIs() {
		t.Fatalf("bank covers %d PIs, want %d", len(res.PatternBank), m.NumPIs())
	}
	w := len(res.PatternBank[0])
	for i, words := range res.PatternBank {
		if len(words) != w {
			t.Fatalf("bank row %d has %d words, want %d", i, len(words), w)
		}
	}
	if res.Outcome == miter.Undecided {
		sr := satsweep.CheckMiter(res.Reduced, satsweep.Options{Seed: 1, SeedBank: res.PatternBank})
		if sr.Outcome != miter.Equivalent {
			t.Fatalf("seeded sweep outcome = %v", sr.Outcome)
		}
	}
}

func TestSeededSweepNeverFewerDisprovedByCEX(t *testing.T) {
	// EC transfer's promise: pairs disproved upstream are pre-split, so
	// the seeded sweep performs at most as many SAT disproofs.
	g, err := gen.Benchmark("ac97_ctrl", 2)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	m := mustMiter(t, g, o)
	cfg := smallConfig()
	cfg.MaxLocalPhases = 1
	res := CheckMiter(m, cfg)
	if res.Outcome != miter.Undecided {
		t.Skip("engine decided the miter alone; nothing to transfer")
	}
	plain := satsweep.CheckMiter(res.Reduced, satsweep.Options{Seed: 5})
	seeded := satsweep.CheckMiter(res.Reduced, satsweep.Options{Seed: 5, SeedBank: res.PatternBank})
	if plain.Outcome != seeded.Outcome {
		t.Fatalf("outcomes differ: %v vs %v", plain.Outcome, seeded.Outcome)
	}
	if seeded.Stats.Disproved > plain.Stats.Disproved {
		t.Fatalf("seeded sweep disproved more by SAT (%d) than unseeded (%d)",
			seeded.Stats.Disproved, plain.Stats.Disproved)
	}
}
