package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/par"
)

// propBatch is one CheckBatch input of the kernel property test.
type propBatch struct {
	name    string
	g       *aig.AIG
	pairs   []Pair
	windows []*Window
}

// propCut returns a cut of the roots with at most k leaves: starting from
// the roots, a random AND leaf is replaced by its fanins while the leaf
// count stays within k. Constant fanins are never leaves.
func propCut(g *aig.AIG, rng *rand.Rand, roots []int32, k int) []int32 {
	leaves := map[int32]bool{}
	for _, r := range roots {
		if r != 0 {
			leaves[r] = true
		}
	}
	for tries := 0; tries < 4*k; tries++ {
		var ands []int32
		for id := range leaves {
			if g.IsAnd(int(id)) {
				ands = append(ands, id)
			}
		}
		if len(ands) == 0 {
			break
		}
		slices.Sort(ands)
		id := ands[rng.Intn(len(ands))]
		f0, f1 := g.Fanins(int(id))
		grow := len(leaves) - 1
		for _, f := range [2]aig.Lit{f0, f1} {
			if f.ID() != 0 && !leaves[int32(f.ID())] {
				grow++
			}
		}
		if grow > k {
			continue
		}
		delete(leaves, id)
		for _, f := range [2]aig.Lit{f0, f1} {
			if f.ID() != 0 {
				leaves[int32(f.ID())] = true
			}
		}
	}
	out := make([]int32, 0, len(leaves))
	for id := range leaves {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// addWindow builds one window over a cut of the pairs' roots (at most k
// leaves) and appends it and its pairs to the batch.
func (b *propBatch) addWindow(t *testing.T, rng *rand.Rand, ps []Pair, k int) {
	t.Helper()
	var roots []int32
	for _, p := range ps {
		for _, r := range []int32{p.A, p.B} {
			if r != 0 && !slices.Contains(roots, r) {
				roots = append(roots, r)
			}
		}
	}
	slices.Sort(roots)
	spec := Spec{Roots: roots, Inputs: propCut(b.g, rng, roots, k)}
	for _, p := range ps {
		spec.PairIdx = append(spec.PairIdx, int32(len(b.pairs)))
		b.pairs = append(b.pairs, p)
	}
	w, err := BuildWindow(b.g, spec)
	if err != nil {
		t.Fatalf("%s: %v", b.name, err)
	}
	b.windows = append(b.windows, w)
}

// randomBatch builds a random AIG over 14 PIs that also holds equal pairs
// of different structure (re-associated ANDs, two XOR forms), then nw
// windows of up to 12 inputs, each with one to three pairs: equal pairs,
// their complements, random pairs and candidate constants.
func randomBatch(t *testing.T, seed int64, nw int) propBatch {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New()
	lits := []aig.Lit{}
	for i := 0; i < 14; i++ {
		lits = append(lits, g.AddPI())
	}
	pick := func() aig.Lit { return lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0) }
	type twin struct{ a, b aig.Lit }
	var twins []twin
	for len(lits) < 220 {
		x, y, z := pick(), pick(), pick()
		switch rng.Intn(4) {
		case 0:
			l := g.And(x, g.And(y, z))
			r := g.And(g.And(x, y), z)
			twins = append(twins, twin{l, r})
			lits = append(lits, l, r)
		case 1:
			l := g.Xor(x, y)
			r := g.And(g.Or(x, y), g.And(x, y).Not())
			twins = append(twins, twin{l, r})
			lits = append(lits, l, r)
		default:
			lits = append(lits, g.And(x, y))
		}
	}
	b := propBatch{name: fmt.Sprintf("random-%d", seed), g: g}
	pairOf := func(a, l aig.Lit) Pair {
		if a.ID() > l.ID() {
			a, l = l, a
		}
		return Pair{A: int32(a.ID()), B: int32(l.ID()), Compl: a.IsCompl() != l.IsCompl()}
	}
	for len(b.windows) < nw {
		var ps []Pair
		for n := 1 + rng.Intn(3); len(ps) < n; {
			var p Pair
			switch rng.Intn(4) {
			case 0:
				tw := twins[rng.Intn(len(twins))]
				p = pairOf(tw.a, tw.b)
			case 1:
				tw := twins[rng.Intn(len(twins))]
				p = pairOf(tw.a, tw.b.Not())
			case 2:
				p = pairOf(pick(), pick())
			default:
				p = Pair{B: int32(pick().ID()), Compl: rng.Intn(2) == 0}
			}
			if p.B != 0 && p.A != p.B {
				ps = append(ps, p)
			}
		}
		b.addWindow(t, rng, ps, 1+rng.Intn(12))
	}
	return b
}

// familyBatch builds windows over the miter of a benchmark family and its
// resyn2 self: every PO against constant zero over its support (at most 12
// inputs; proved) and against constant one (refuted), then windows over
// cuts of at most 8 leaves of random node pairs of the miter.
func familyBatch(t *testing.T, name string, scale int, seed int64, nw int) propBatch {
	rng := rand.New(rand.NewSource(seed))
	g, err := gen.Benchmark(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	m, err := miter.Build(g, opt.Resyn2(g, nil))
	if err != nil {
		t.Fatal(err)
	}
	b := propBatch{name: fmt.Sprintf("%s-%d", name, scale), g: m}
	for i := 0; i < m.NumPOs(); i++ {
		po := m.PO(i)
		if po.ID() == 0 {
			continue
		}
		sup := m.SupportOf(po.ID())
		if len(sup) > 12 {
			continue
		}
		for _, c := range []bool{po.IsCompl(), !po.IsCompl()} {
			idx := int32(len(b.pairs))
			b.pairs = append(b.pairs, Pair{B: int32(po.ID()), Compl: c})
			w, err := BuildWindow(m, Spec{Roots: []int32{int32(po.ID())}, Inputs: sup, PairIdx: []int32{idx}})
			if err != nil {
				t.Fatal(err)
			}
			b.windows = append(b.windows, w)
		}
	}
	var ands []int32
	for id := 1; id < m.NumNodes(); id++ {
		if m.IsAnd(id) {
			ands = append(ands, int32(id))
		}
	}
	for n := len(b.windows) + nw; len(b.windows) < n; {
		x, y := ands[rng.Intn(len(ands))], ands[rng.Intn(len(ands))]
		if x == y {
			continue
		}
		b.addWindow(t, rng, []Pair{{A: min(x, y), B: max(x, y), Compl: rng.Intn(2) == 0}}, 2+rng.Intn(7))
	}
	return b
}

// oracle evaluates every pair of b with aig.Eval on its window rebuilt as a
// standalone AIG over the window inputs, and returns per pair the first
// truth-table index where its roots differ (-1: none).
func (b *propBatch) oracle() []int64 {
	diffs := make([]int64, len(b.pairs))
	for _, w := range b.windows {
		h := aig.New()
		lit := map[int32]aig.Lit{0: aig.False}
		for _, id := range w.Inputs {
			lit[id] = h.AddPI()
		}
		for _, id := range w.Nodes {
			f0, f1 := b.g.Fanins(int(id))
			lit[id] = h.And(lit[int32(f0.ID())].NotIf(f0.IsCompl()), lit[int32(f1.ID())].NotIf(f1.IsCompl()))
		}
		for _, pi := range w.PairIdx {
			p := b.pairs[pi]
			h.AddPO(lit[p.A].NotIf(p.Compl))
			h.AddPO(lit[p.B])
			diffs[pi] = -1
		}
		in := make([]bool, len(w.Inputs))
		for x := int64(0); x < int64(1)<<len(w.Inputs); x++ {
			for j := range in {
				in[j] = x>>j&1 == 1
			}
			out := h.Eval(in)
			for k, pi := range w.PairIdx {
				if out[2*k] != out[2*k+1] && diffs[pi] < 0 {
					diffs[pi] = x
				}
			}
		}
	}
	return diffs
}

// propConfig is one checker configuration of the property test.
type propConfig struct {
	rounds  string // "one" or "multi"
	slice   int
	workers int
}

func (c propConfig) String() string {
	return fmt.Sprintf("rounds=%s slice=%d workers=%d", c.rounds, c.slice, c.workers)
}

// budget returns the round budget M of cfg for batch b: one round covers
// the widest truth table, multi forces at least four rounds.
func (c propConfig) budget(b *propBatch) int {
	slots, maxTT := 0, 1
	for _, w := range b.windows {
		slots += w.NumSlots()
		maxTT = max(maxTT, w.TTWords())
	}
	if c.rounds == "one" {
		return slots * maxTT
	}
	return slots * max(1, maxTT/4)
}

func propConfigs() []propConfig {
	var cs []propConfig
	for _, r := range []string{"one", "multi"} {
		for _, s := range []int{0, 1} {
			for _, w := range []int{1, 2, 4} {
				cs = append(cs, propConfig{r, s, w})
			}
		}
	}
	return cs
}

func propBatches(t *testing.T) []propBatch {
	g, pairs, windows := deepParityBatch(t, 8, 11) // refutes nothing
	return []propBatch{
		{name: "parity", g: g, pairs: pairs, windows: windows},
		randomBatch(t, 1, 120),
		randomBatch(t, 2, 40),
		familyBatch(t, "multiplier", 5, 3, 60),
		familyBatch(t, "voter", 2, 4, 30),
		familyBatch(t, "sin", 4, 5, 60),
		familyBatch(t, "adder", 6, 6, 40),
	}
}

// checkAgainstOracle fails unless the verdicts of r are the oracle's:
// Equal exactly where the roots never differ, else a CEX at the first index
// where they do.
func checkAgainstOracle(t *testing.T, label string, b *propBatch, r Result, first []int64) {
	t.Helper()
	if r.Err != nil || r.Stopped {
		t.Fatalf("%s %s: err %v, stopped %v", b.name, label, r.Err, r.Stopped)
	}
	for i, d := range first {
		switch {
		case d < 0 && (!r.Equal[i] || r.CEXs[i] != nil):
			t.Fatalf("%s %s: pair %d %+v: equal under the oracle, checker says equal=%v cex=%v",
				b.name, label, i, b.pairs[i], r.Equal[i], r.CEXs[i])
		case d < 0:
		case r.Equal[i] || r.CEXs[i] == nil:
			t.Fatalf("%s %s: pair %d %+v: first differs at %d, checker says equal=%v",
				b.name, label, i, b.pairs[i], d, r.Equal[i])
		case r.CEXs[i].Index != uint64(d):
			t.Fatalf("%s %s: pair %d: CEX index %d, oracle's first difference %d",
				b.name, label, i, r.CEXs[i].Index, d)
		}
	}
}

// TestExhaustiveKernelProperties runs batches of different shapes back to
// back through every configuration of round budget (one round, at least
// four), slicing (default, every window split per word) and worker count
// (1, 2, 4). Every run must match the aig.Eval oracle in its verdicts, and
// its CEX must sit at the first index where the roots differ. Neither the
// rounds nor the words simulated may depend on slicing or workers.
func TestExhaustiveKernelProperties(t *testing.T) {
	batches := propBatches(t)
	oracles := make([][]int64, len(batches))
	for i := range batches {
		oracles[i] = batches[i].oracle()
	}
	type stat struct {
		rounds int
		words  int64
	}
	ref := map[string]stat{} // per batch and round budget
	for _, cfg := range propConfigs() {
		ex := NewExhaustive(par.NewDevice(cfg.workers), 0)
		ex.SliceWork = cfg.slice
		for bi := range batches {
			b := &batches[bi]
			ex.BudgetWords = cfg.budget(b)
			r := ex.CheckBatch(b.g, b.pairs, b.windows)
			checkAgainstOracle(t, cfg.String(), b, r, oracles[bi])
			// A widest window (four words or more) that proves a pair runs
			// to the last round.
			maxTT := 0
			for _, w := range b.windows {
				maxTT = max(maxTT, w.TTWords())
			}
			wideProof := maxTT >= 4 && slices.ContainsFunc(b.windows, func(w *Window) bool {
				return w.TTWords() == maxTT && slices.ContainsFunc(w.PairIdx, func(pi int32) bool { return r.Equal[pi] })
			})
			if cfg.rounds == "multi" && wideProof && r.Rounds < 4 {
				t.Fatalf("%s %v: %d rounds, want at least 4", b.name, cfg, r.Rounds)
			}
			key := b.name + "/" + cfg.rounds
			want, ok := ref[key]
			if !ok {
				want = stat{r.Rounds, r.WordsSimulated}
				ref[key] = want
			}
			if r.Rounds != want.rounds {
				t.Fatalf("%s %v: %d rounds, want %d", b.name, cfg, r.Rounds, want.rounds)
			}
			if r.WordsSimulated != want.words {
				t.Fatalf("%s %v: %d words simulated, want %d", b.name, cfg, r.WordsSimulated, want.words)
			}
		}
	}
}

// TestExhaustiveSharedPoolsConcurrent runs every batch from two goroutines
// at once, each on its own checker and device, so the two share the
// package's table and scratch pools. Run under the race detector by make
// race.
func TestExhaustiveSharedPoolsConcurrent(t *testing.T) {
	batches := propBatches(t)
	oracles := make([][]int64, len(batches))
	for i := range batches {
		oracles[i] = batches[i].oracle()
	}
	results := make([][]Result, 2)
	var wg sync.WaitGroup
	for gi := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := NewExhaustive(par.NewDevice(2), 0)
			ex.SliceWork = gi // goroutine 1 slices every window per word
			for rep := 0; rep < 3; rep++ {
				for bi := range batches {
					results[gi] = append(results[gi], ex.CheckBatch(batches[bi].g, batches[bi].pairs, batches[bi].windows))
				}
			}
		}()
	}
	wg.Wait()
	for gi, rs := range results {
		for i, r := range rs {
			bi := i % len(batches)
			checkAgainstOracle(t, fmt.Sprintf("goroutine %d run %d", gi, i), &batches[bi], r, oracles[bi])
		}
	}
}
