package difftest_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/difftest"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/par"
)

func device(t *testing.T) *par.Device {
	t.Helper()
	dev := par.NewDevice(2)
	t.Cleanup(dev.Close)
	return dev
}

// bruteForce is an independent (and deliberately naive) oracle: single-bit
// evaluation of every input assignment.
func bruteForce(t *testing.T, m *aig.AIG) (miter.Outcome, []bool) {
	t.Helper()
	n := m.NumPIs()
	if n > 12 {
		t.Fatalf("bruteForce over %d PIs", n)
	}
	in := make([]bool, n)
	for x := 0; x < 1<<uint(n); x++ {
		for i := range in {
			in[i] = x>>uint(i)&1 == 1
		}
		for _, v := range m.Eval(in) {
			if v {
				cex := append([]bool(nil), in...)
				return miter.NotEquivalent, cex
			}
		}
	}
	return miter.Equivalent, nil
}

func TestTruthTableOracleMatchesEval(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := gen.Random(3+rng.Intn(8), 1+rng.Intn(3), 10+rng.Intn(60), rng.Int63())
		b := a
		if seed%2 == 0 {
			if m, ok := difftest.MutateGateFlip(a, rng); ok {
				b = m
			}
		}
		m, err := miter.Build(a, b)
		if err != nil {
			t.Fatal(err)
		}
		wantV, _ := bruteForce(t, m)
		gotV, gotCEX := difftest.TruthTable(m)
		if gotV != wantV {
			t.Fatalf("seed %d: oracle %s, brute force %s", seed, gotV, wantV)
		}
		if gotV == miter.NotEquivalent && !difftest.CEXDistinguishes(device(t), m, gotCEX) {
			t.Fatalf("seed %d: oracle cex %v does not replay", seed, gotCEX)
		}
	}
}

func TestMutatorsProduceValidCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a := gen.Random(4+rng.Intn(6), 1+rng.Intn(3), 15+rng.Intn(60), rng.Int63())
		for _, mut := range difftest.Mutators() {
			b, ok := mut.Apply(a, rng)
			if !ok {
				continue
			}
			if err := b.Validate(); err != nil {
				t.Fatalf("%s: invalid mutant: %v", mut.Name, err)
			}
			if b.NumPIs() != a.NumPIs() || b.NumPOs() != a.NumPOs() {
				t.Fatalf("%s: interface changed: %d/%d PIs, %d/%d POs",
					mut.Name, b.NumPIs(), a.NumPIs(), b.NumPOs(), a.NumPOs())
			}
		}
	}
}

func TestPermutePIsPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := gen.Random(3+rng.Intn(6), 1+rng.Intn(3), 10+rng.Intn(40), rng.Int63())
		perm := rng.Perm(g.NumPIs())
		p := difftest.PermutePIs(g, perm)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for x := 0; x < 64; x++ {
			in := make([]bool, g.NumPIs())
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			// New input i plays old input perm[i]'s role.
			pin := make([]bool, len(in))
			for i, pi := range perm {
				pin[i] = in[pi]
			}
			want := g.Eval(in)
			got := p.Eval(pin)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d: PO %d differs after permutation", trial, k)
				}
			}
		}
	}
}

// TestCounterexampleContract is the table-driven NEQ contract: every
// backend that answers NotEquivalent on a known-inequivalent miter must
// supply a counter-example that actually distinguishes the outputs, and
// every complete backend must decide.
func TestCounterexampleContract(t *testing.T) {
	dev := device(t)
	type construction struct {
		name  string
		build func(rng *rand.Rand) (*aig.AIG, *aig.AIG, bool)
	}
	cons := []construction{
		{"gateflip/adder", func(rng *rand.Rand) (*aig.AIG, *aig.AIG, bool) {
			a, _ := gen.Adder(3)
			b, ok := difftest.MutateGateFlip(a, rng)
			return a, b, ok
		}},
		{"constinject/multiplier", func(rng *rand.Rand) (*aig.AIG, *aig.AIG, bool) {
			a, _ := gen.Multiplier(3)
			b, ok := difftest.MutateConstInject(a, rng)
			return a, b, ok
		}},
		{"inputswap/barrel", func(rng *rand.Rand) (*aig.AIG, *aig.AIG, bool) {
			a, _ := gen.BarrelShifter(4)
			b, ok := difftest.MutateInputSwap(a, rng)
			return a, b, ok
		}},
		{"conedup/random", func(rng *rand.Rand) (*aig.AIG, *aig.AIG, bool) {
			a := gen.Random(8, 2, 60, rng.Int63())
			b, ok := difftest.MutateConeDup(a, rng)
			return a, b, ok
		}},
	}
	backends := difftest.DefaultBackends(2, 1)
	for _, con := range cons {
		t.Run(con.name, func(t *testing.T) {
			// Seek a seed whose mutation genuinely changes the function.
			var m *aig.AIG
			for seed := int64(0); seed < 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				a, b, ok := con.build(rng)
				if !ok {
					continue
				}
				mm, err := miter.Build(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if v, _ := difftest.TruthTable(mm); v == miter.NotEquivalent {
					m = mm
					break
				}
			}
			if m == nil {
				t.Fatalf("no seed produced an inequivalent mutant")
			}
			for i := range backends {
				b := &backends[i]
				if !b.Applicable(m) {
					continue
				}
				res := b.Check(m)
				if b.Complete && res.Verdict != miter.NotEquivalent {
					t.Errorf("%s: verdict %s on an inequivalent miter", b.Name, res.Verdict)
					continue
				}
				if res.Verdict != miter.NotEquivalent {
					continue
				}
				if len(res.CEX) == 0 {
					t.Errorf("%s: NEQ verdict without a counter-example", b.Name)
					continue
				}
				if !difftest.CEXDistinguishes(dev, m, res.CEX) {
					t.Errorf("%s: counter-example %v does not distinguish the outputs", b.Name, res.CEX)
				}
			}
		})
	}
}

// lyingBackends returns the default roster with one backend replaced by a
// liar that unconditionally answers Equivalent — the "temporarily broken
// backend" of the acceptance criteria.
func lyingBackends(victim string) []difftest.Backend {
	backends := difftest.DefaultBackends(2, 1)
	for i := range backends {
		if backends[i].Name == victim {
			backends[i].Check = func(m *aig.AIG) difftest.BackendResult {
				return difftest.BackendResult{Verdict: miter.Equivalent}
			}
		}
	}
	return backends
}

// TestInjectedDisagreementCaughtAndShrunk breaks the SAT backend on
// purpose and checks the harness catches the disagreement and shrinks the
// failing miter to a reproducer of at most 40 nodes.
func TestInjectedDisagreementCaughtAndShrunk(t *testing.T) {
	corpus := t.TempDir()
	var log bytes.Buffer
	s, err := difftest.Run(difftest.Options{
		Seed:         1,
		N:            12,
		Workers:      2,
		Shrink:       true,
		ShrinkChecks: 300,
		CorpusDir:    corpus,
		Backends:     lyingBackends("sat"),
	}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Failures) == 0 {
		t.Fatalf("liar backend not caught over %d cases:\n%s", s.Cases, log.String())
	}
	if s.Agreement >= 1 {
		t.Fatalf("agreement rate %v despite failures", s.Agreement)
	}
	shrunk := 0
	for _, f := range s.Failures {
		if f.Shrunk == nil {
			continue
		}
		shrunk++
		if n := f.Shrunk.NumNodes(); n > 40 {
			t.Errorf("case %d (%s): reproducer has %d nodes, want ≤ 40", f.CaseIndex, f.Kind, n)
		}
		if f.CorpusPath == "" {
			t.Errorf("case %d: no corpus file written", f.CaseIndex)
			continue
		}
		if _, err := os.Stat(f.CorpusPath); err != nil {
			t.Errorf("corpus file: %v", err)
		}
	}
	if shrunk == 0 {
		t.Fatal("no failure was shrunk")
	}
	entries, err := os.ReadDir(corpus)
	if err != nil || len(entries) == 0 {
		t.Fatalf("corpus dir empty (err %v)", err)
	}
}

func TestShrinkReachesMinimalNEQMiter(t *testing.T) {
	a, _ := gen.Adder(4)
	rng := rand.New(rand.NewSource(3))
	var m *aig.AIG
	for {
		b, ok := difftest.MutateGateFlip(a, rng)
		if !ok {
			t.Fatal("mutation failed")
		}
		mm, err := miter.Build(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := difftest.TruthTable(mm); v == miter.NotEquivalent {
			m = mm
			break
		}
	}
	pred := func(g *aig.AIG) bool {
		if g.NumPOs() == 0 || g.NumPIs() > difftest.OracleMaxPIs {
			return false
		}
		v, _ := difftest.TruthTable(g)
		return v == miter.NotEquivalent
	}
	shrunk := difftest.Shrink(m, pred, 0)
	if !pred(shrunk) {
		t.Fatal("shrunk miter no longer fails the predicate")
	}
	if shrunk.NumNodes() >= m.NumNodes() {
		t.Fatalf("no shrinkage: %d -> %d nodes", m.NumNodes(), shrunk.NumNodes())
	}
	if n := shrunk.NumNodes(); n > 10 {
		t.Errorf("greedy shrink left %d nodes on a simple NEQ miter, want ≤ 10", n)
	}
}

// TestSeededDeterminism is the seed-protocol contract: two runs with the
// same options produce byte-identical logs and byte-identical corpora.
// The roster includes a liar so the failure/shrink/corpus path is
// exercised, not just the happy path.
func TestSeededDeterminism(t *testing.T) {
	runOnce := func(dir string) []byte {
		t.Helper()
		var log bytes.Buffer
		_, err := difftest.Run(difftest.Options{
			Seed:         5,
			N:            10,
			Workers:      2,
			Shrink:       true,
			ShrinkChecks: 200,
			CorpusDir:    dir,
			Backends:     lyingBackends("bdd"),
		}, &log)
		if err != nil {
			t.Fatal(err)
		}
		return log.Bytes()
	}
	dir1, dir2 := t.TempDir(), t.TempDir()
	log1 := runOnce(dir1)
	log2 := runOnce(dir2)
	if !bytes.Equal(log1, log2) {
		t.Fatalf("logs differ between identical runs:\n--- first\n%s\n--- second\n%s", log1, log2)
	}
	files1, files2 := dirContents(t, dir1), dirContents(t, dir2)
	if len(files1) == 0 {
		t.Fatal("no corpus files written")
	}
	if len(files1) != len(files2) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(files1), len(files2))
	}
	for name, data := range files1 {
		if !bytes.Equal(data, files2[name]) {
			t.Errorf("corpus file %s differs between runs", name)
		}
	}
}

func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestRunCleanOnDefaultRoster is the in-tree version of the acceptance
// sweep: a short differential run over the honest roster must report 100%
// agreement with both verdicts exercised.
func TestRunCleanOnDefaultRoster(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 8
	}
	var log bytes.Buffer
	s, err := difftest.Run(difftest.Options{Seed: 1, N: n, Workers: 2, Metamorphic: true}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Failures) != 0 {
		t.Fatalf("failures on the honest roster:\n%s", log.String())
	}
	if s.Agreement != 1 {
		t.Fatalf("agreement %v, want 1.0", s.Agreement)
	}
	if s.EQ == 0 || s.NEQ == 0 {
		t.Fatalf("want both verdicts exercised, got %d EQ / %d NEQ", s.EQ, s.NEQ)
	}
}
