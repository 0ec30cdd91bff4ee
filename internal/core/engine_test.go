package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.KP = 20
	cfg.Kp = 12
	cfg.Kg = 12
	cfg.Seed = 1
	return cfg
}

func mustMiter(t *testing.T, a, b *aig.AIG) *aig.AIG {
	t.Helper()
	m, err := miter.Build(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEngineProvesOptimizedAdder(t *testing.T) {
	g, err := gen.Adder(8)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	res := CheckMiter(mustMiter(t, g, o), smallConfig())
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v; phases = %+v", res.Outcome, res.Phases)
	}
	// resyn2 often reproduces structurally identical logic, in which case
	// the miter collapses at strash time and there is nothing to reduce.
	want := 100.0
	if res.Stats.InitialAnds == 0 {
		want = 0
	}
	if res.Stats.ReductionPercent() != want {
		t.Fatalf("reduction = %.1f%% (initial ands %d), want %.0f%%",
			res.Stats.ReductionPercent(), res.Stats.InitialAnds, want)
	}
}

func TestEngineProvesOptimizedMultiplier(t *testing.T) {
	g, err := gen.Multiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	res := CheckMiter(mustMiter(t, g, o), smallConfig())
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v; reduced %.1f%%", res.Outcome, res.Stats.ReductionPercent())
	}
}

func TestEngineDisprovesCorruptedCircuit(t *testing.T) {
	g, err := gen.Adder(8)
	if err != nil {
		t.Fatal(err)
	}
	bad := g.Copy()
	bad.SetPO(3, bad.PO(3).Not())
	m := mustMiter(t, g, bad)
	res := CheckMiter(m, smallConfig())
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	fired := false
	for _, v := range m.Eval(res.CEX) {
		fired = fired || v
	}
	if !fired {
		t.Fatalf("CEX %v does not fire the miter", res.CEX)
	}
}

func TestEngineDisprovesSubtleCornerBug(t *testing.T) {
	// Bug visible only when all 10 inputs are ones: random simulation
	// will not find it; PO checking (exhaustive) must.
	g1 := aig.New()
	g2 := aig.New()
	var x1, x2 []aig.Lit
	for i := 0; i < 10; i++ {
		x1 = append(x1, g1.AddPI())
		x2 = append(x2, g2.AddPI())
	}
	all := func(g *aig.AIG, xs []aig.Lit) aig.Lit {
		acc := aig.True
		for _, x := range xs {
			acc = g.And(acc, x)
		}
		return acc
	}
	g1.AddPO(g1.Xor(x1[0], x1[3]))
	g2.AddPO(g2.Xor(g2.Xor(x2[0], x2[3]), all(g2, x2)))
	m := mustMiter(t, g1, g2)
	res := CheckMiter(m, smallConfig())
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	for i, v := range res.CEX {
		if !v {
			t.Fatalf("CEX[%d] = false, want all-ones CEX: %v", i, res.CEX)
		}
	}
}

func TestEngineOneShotPOChecking(t *testing.T) {
	// All PO supports ≤ KP: the miter must be fully proved in the P
	// phase, like log2/sin in the paper.
	g, err := gen.Multiplier(7) // PO supports ≤ 14
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	cfg := smallConfig()
	res := CheckMiter(mustMiter(t, g, o), cfg)
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if len(res.Phases) == 0 || res.Phases[0].Kind != PhaseP {
		t.Fatalf("phases = %+v", res.Phases)
	}
	if res.Phases[0].Proved == 0 {
		t.Fatal("P phase proved nothing on a small-support miter")
	}
	// After a one-shot P proof the engine should not need local phases.
	for _, ph := range res.Phases {
		if ph.Kind == PhaseL && ph.Proved > 0 {
			t.Fatalf("L phase did work after one-shot P: %+v", res.Phases)
		}
	}
}

func TestEngineLocalPhaseProvesWideMiter(t *testing.T) {
	// Wide inputs (> Kg support everywhere): only local function
	// checking can prove internal pairs.
	g, err := gen.Multiplier(9) // PO supports up to 18
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	cfg := smallConfig()
	cfg.KP = 10 // force PO checking off
	cfg.Kp = 6
	cfg.Kg = 6 // starve global checking
	res := CheckMiter(mustMiter(t, g, o), cfg)
	lProved := 0
	for _, ph := range res.Phases {
		if ph.Kind == PhaseL {
			lProved += ph.Proved
		}
	}
	if lProved == 0 {
		t.Fatalf("local phases proved nothing; phases = %+v", res.Phases)
	}
	if res.Outcome == miter.NotEquivalent {
		t.Fatal("equivalent miter disproved")
	}
}

func TestEngineSnapshots(t *testing.T) {
	g, err := gen.Multiplier(7)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	cfg := smallConfig()
	cfg.KeepSnapshots = true
	res := CheckMiter(mustMiter(t, g, o), cfg)
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Snapshots["P"] == nil || res.Snapshots["PG"] == nil {
		t.Fatalf("snapshots missing: %v", keys(res.Snapshots))
	}
	// Snapshots must shrink monotonically along the flow.
	if res.Snapshots["PG"].NumAnds() > res.Snapshots["P"].NumAnds() {
		t.Fatalf("PG snapshot (%d) larger than P snapshot (%d)",
			res.Snapshots["PG"].NumAnds(), res.Snapshots["P"].NumAnds())
	}
}

func keys(m map[string]*aig.AIG) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestEngineUndecidedHandsOffReducedMiter(t *testing.T) {
	// Starve every phase so the engine cannot finish; the reduced miter
	// must still be a valid, function-preserving miter.
	g, err := gen.Multiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	m := mustMiter(t, g, o)
	cfg := smallConfig()
	cfg.KP = 4
	cfg.Kp = 4
	cfg.Kg = 4
	cfg.Kl = 3
	cfg.MaxLocalPhases = 1
	res := CheckMiter(m, cfg)
	if res.Outcome == miter.NotEquivalent {
		t.Fatal("equivalent miter disproved")
	}
	if res.Reduced == nil {
		t.Fatal("no reduced miter")
	}
	// Function preservation of the reduction.
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 32; k++ {
		in := make([]bool, m.NumPIs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		a, b := m.Eval(in), res.Reduced.Eval(in)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("reduction changed the miter function at output %d", i)
			}
		}
	}
}

func TestEngineStopCancels(t *testing.T) {
	g, err := gen.Multiplier(7)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	stop := make(chan struct{})
	close(stop)
	cfg := smallConfig()
	cfg.Stop = stop
	res := CheckMiter(mustMiter(t, g, o), cfg)
	if res.Outcome == miter.NotEquivalent {
		t.Fatal("cancelled run disproved an equivalent miter")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.KP != 32 || cfg.Kp != 16 || cfg.Kg != 16 || cfg.Kl != 8 || cfg.C != 8 {
		t.Fatalf("defaults diverge from the paper: %+v", cfg)
	}
	var zero Config
	zero.fill()
	if zero.KP != 32 || zero.Dev == nil {
		t.Fatalf("fill did not apply defaults: %+v", zero)
	}
}

func TestReductionPercent(t *testing.T) {
	s := Stats{InitialAnds: 200, FinalAnds: 0}
	if s.ReductionPercent() != 100 {
		t.Fatal("full reduction != 100%")
	}
	s.FinalAnds = 100
	if s.ReductionPercent() != 50 {
		t.Fatalf("half reduction = %v", s.ReductionPercent())
	}
	// A miter that was already empty after strashing had nothing to
	// reduce: the result is 0 — and in particular never NaN, which the
	// old 0/0 division produced for FinalAnds == InitialAnds == 0 paths.
	if got := (Stats{}).ReductionPercent(); got != 0 {
		t.Fatalf("empty miter reduction = %v, want 0", got)
	}
	if got := (Stats{InitialAnds: 0, FinalAnds: 5}).ReductionPercent(); got != 0 {
		t.Fatalf("zero-initial reduction = %v, want 0", got)
	}
	if math.IsNaN((Stats{}).ReductionPercent()) {
		t.Fatal("empty miter reduction is NaN")
	}
}

func TestQuickEngineAgreesWithEnumeration(t *testing.T) {
	f := func(seed int64, mutate bool) bool {
		build := func(mutated bool) *aig.AIG {
			r := rand.New(rand.NewSource(seed))
			g := aig.New()
			var lits []aig.Lit
			for i := 0; i < 6; i++ {
				lits = append(lits, g.AddPI())
			}
			for i := 0; i < 30; i++ {
				a := lits[r.Intn(len(lits))].NotIf(r.Intn(2) == 1)
				b := lits[r.Intn(len(lits))].NotIf(r.Intn(2) == 1)
				lits = append(lits, g.And(a, b))
			}
			out := lits[len(lits)-1]
			if mutated {
				out = g.Xor(out, g.And(lits[6], lits[8]))
			}
			g.AddPO(out)
			return g
		}
		g1 := build(false)
		g2 := build(mutate)
		m, err := miter.Build(g1, g2)
		if err != nil {
			return false
		}
		same := true
		for pat := 0; pat < 64; pat++ {
			in := make([]bool, 6)
			for i := range in {
				in[i] = (pat>>uint(i))&1 == 1
			}
			if g1.Eval(in)[0] != g2.Eval(in)[0] {
				same = false
				break
			}
		}
		cfg := smallConfig()
		cfg.Seed = seed
		res := CheckMiter(m, cfg)
		if same {
			return res.Outcome == miter.Equivalent
		}
		if res.Outcome != miter.NotEquivalent {
			return false
		}
		for _, v := range m.Eval(res.CEX) {
			if v {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDoubledMiterSimulatesEachCopyOnce pins the work of window merging on
// an ABC-style doubled circuit, whose two copies have disjoint supports:
// the doubled miter must simulate about twice the words of one copy's
// miter, not one window over both copies' inputs (a table 2^k times
// longer for k inputs per copy).
func TestDoubledMiterSimulatesEachCopyOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	words := func(t *testing.T, g *aig.AIG) int64 {
		t.Helper()
		res := CheckMiter(mustMiter(t, g, opt.Resyn2(g, nil)), cfg)
		if res.Outcome != miter.Equivalent {
			t.Fatalf("outcome = %v", res.Outcome)
		}
		return res.Stats.WordsSimulated
	}
	for _, c := range []struct {
		name  string
		scale int
	}{{"log2", 8}, {"sqrt", 10}} {
		t.Run(c.name, func(t *testing.T) {
			g, err := gen.Benchmark(c.name, c.scale)
			if err != nil {
				t.Fatal(err)
			}
			one, two := words(t, g), words(t, aig.Double(g))
			t.Logf("%s-%d: one copy %d words, doubled %d", c.name, c.scale, one, two)
			if one == 0 || two > 5*one/2 {
				t.Fatalf("doubled miter simulated %d words, one copy %d: want at most about twice", two, one)
			}
		})
	}
}
