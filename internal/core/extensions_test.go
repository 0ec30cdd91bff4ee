package core

// Tests of the §V extensions: adaptive pass disabling and the pattern-bank
// export used for EC transfer.

import (
	"testing"

	"simsweep/internal/cuts"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/satsweep"
)

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
	if seeded.Stats.Pairs.Disproved > plain.Stats.Pairs.Disproved {
		t.Fatalf("seeded sweep disproved more pairs by SAT (%d) than unseeded (%d)",
			seeded.Stats.Pairs.Disproved, plain.Stats.Pairs.Disproved)
	}
}
