package sim

import (
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/par"
)

// TestWindowDispatchLaunchCount regression-guards the barrier reduction of
// the window-parallel restructure: the checker must issue exactly one
// kernel launch per simulation round, at least 10x fewer than the previous
// per-level dispatch (seed + one launch per window level + compare, every
// round) on deep windows.
func TestWindowDispatchLaunchCount(t *testing.T) {
	g, pairs, windows := deepParityBatch(t, 8, 12)
	total := 0
	for _, w := range windows {
		total += w.NumSlots()
	}
	dev := par.NewDevice(4)
	ex := NewExhaustive(dev, total*2) // E=2 -> 32 rounds at k=12
	res := ex.CheckBatch(g, pairs, windows)
	for i := range pairs {
		if !res.Equal[i] {
			t.Fatalf("parity pair %d disproved", i)
		}
	}
	if res.Rounds < 16 {
		t.Fatalf("budget did not force a deep sweep: %d rounds", res.Rounds)
	}

	stats := dev.Stats()
	launches := 0
	for name, ks := range stats {
		if len(name) >= 10 && name[:10] == "exhaustive" {
			launches += ks.Launches
		}
	}
	if got := stats["exhaustive.window"].Launches; got != res.Rounds || launches != res.Rounds {
		t.Fatalf("exhaustive launches = %d (window kernel %d), want exactly one per round (%d)\n%s",
			launches, got, res.Rounds, dev.Profile())
	}

	// The pre-restructure dispatch count: per round, one seed launch, one
	// launch per window level and one compare launch.
	maxLevel := 0
	for _, w := range windows {
		if d := windowDepth(g, w); d > maxLevel {
			maxLevel = d
		}
	}
	oldLaunches := res.Rounds * (maxLevel + 2)
	if launches*10 > oldLaunches {
		t.Fatalf("launch reduction below 10x: %d launches vs %d with per-level barriers\n%s",
			launches, oldLaunches, dev.Profile())
	}
}

// windowDepth computes the window-topological depth a per-level dispatch
// would have barriered on.
func windowDepth(g *aig.AIG, w *Window) int {
	level := make(map[int32]int, len(w.Nodes))
	max := 0
	for _, id := range w.Nodes {
		f0, f1 := g.Fanins(int(id))
		l := 0
		if fl := level[int32(f0.ID())]; fl > l {
			l = fl
		}
		if fl := level[int32(f1.ID())]; fl > l {
			l = fl
		}
		level[id] = l + 1
		if l+1 > max {
			max = l + 1
		}
	}
	return max
}

// TestSlicedWindowMatchesUnsliced forces the word-slicing path (a tiny
// SliceWork splits every window into per-word tasks) and checks verdicts
// and counter-examples agree with the unsliced run.
func TestSlicedWindowMatchesUnsliced(t *testing.T) {
	g, pairs, windows := deepParityBatch(t, 4, 9)
	// Add a refutable pair: root 0 of window 0 against constant zero.
	w0 := windows[0]
	pi := int32(len(pairs))
	pairs = append(pairs, Pair{A: 0, B: w0.Roots[0]})
	w0.PairIdx = append(w0.PairIdx, pi)

	run := func(sliceWork int) Result {
		ex := NewExhaustive(par.NewDevice(4), 0)
		ex.SliceWork = sliceWork
		return ex.CheckBatch(g, pairs, windows)
	}
	plain := run(0)
	sliced := run(1) // every window splits into single-word tasks
	for i := range pairs {
		if plain.Equal[i] != sliced.Equal[i] {
			t.Fatalf("pair %d: sliced verdict %v != unsliced %v", i, sliced.Equal[i], plain.Equal[i])
		}
		if (plain.CEXs[i] == nil) != (sliced.CEXs[i] == nil) {
			t.Fatalf("pair %d: CEX presence differs", i)
		}
		if plain.CEXs[i] != nil && plain.CEXs[i].Index != sliced.CEXs[i].Index {
			t.Fatalf("pair %d: CEX index %d != %d", i, sliced.CEXs[i].Index, plain.CEXs[i].Index)
		}
	}
	if plain.Equal[pi] {
		t.Fatal("refutable constant pair proved")
	}
}

// TestCheckBatchScratchReuse runs several batches through one checker to
// exercise the pooled buffers across differently shaped batches.
func TestCheckBatchScratchReuse(t *testing.T) {
	ex := NewExhaustive(par.NewDevice(2), 0)
	for _, shape := range []struct{ nw, k int }{{2, 4}, {6, 8}, {1, 10}, {3, 5}} {
		g, pairs, windows := deepParityBatch(t, shape.nw, shape.k)
		res := ex.CheckBatch(g, pairs, windows)
		for i := range pairs {
			if !res.Equal[i] {
				t.Fatalf("shape %+v: pair %d disproved", shape, i)
			}
		}
	}
}

// chain returns an AIG whose single output sits depth ANDs deep.
func chain(depth int) *aig.AIG {
	g := aig.New()
	a, b := g.AddPI(), g.AddPI()
	acc := g.And(a, b)
	for i := 1; i < depth; i++ {
		if i%2 == 0 {
			acc = g.And(acc, a.Not())
		} else {
			acc = g.And(acc.Not(), b)
		}
	}
	g.AddPO(acc)
	return g
}

// TestPartialSweepLaunchCount pins the one-launch sweep: whatever the
// depth of the graph and the width of the bank, Simulate issues exactly
// one partial.level kernel launch, where the former level-wise dispatch
// issued one per level.
func TestPartialSweepLaunchCount(t *testing.T) {
	for _, depth := range []int{1, 10, 300} {
		for _, words := range []int{1, 8, 33} {
			g := chain(depth)
			if got := g.Level(); got != depth {
				t.Fatalf("chain depth %d built with level %d", depth, got)
			}
			dev := par.NewDevice(4)
			p := NewPartial(dev, g.NumPIs(), words, 1)
			for call := 1; call <= 3; call++ {
				if _, err := p.Simulate(g); err != nil {
					t.Fatal(err)
				}
				if got := dev.Stats()["partial.level"].Launches; got != call {
					t.Fatalf("depth %d, %d words: %d partial.level launches after %d calls, want one per call\n%s",
						depth, words, got, call, dev.Profile())
				}
			}
			dev.Close()
		}
	}
}
