package miter_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/core"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/par"
)

// fullReduce is the reference Reduce: it rebuilds every node of g through
// the strash table, merged members replaced by their targets, and then
// cleans the rebuild to the cones of its POs.
func fullReduce(g *aig.AIG, merges []miter.Merge) *aig.AIG {
	target := make(map[int32]aig.Lit, len(merges))
	for _, m := range merges {
		target[m.Member] = m.Target
	}
	out := aig.New()
	lit := make([]aig.Lit, g.NumNodes())
	for id := 1; id < g.NumNodes(); id++ {
		if t, ok := target[int32(id)]; ok {
			lit[id] = lit[t.ID()].NotIf(t.IsCompl())
			continue
		}
		if g.IsPI(id) {
			lit[id] = out.AddPI()
			continue
		}
		f0, f1 := g.Fanins(id)
		lit[id] = out.And(lit[f0.ID()].NotIf(f0.IsCompl()), lit[f1.ID()].NotIf(f1.IsCompl()))
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		out.AddPO(lit[po.ID()].NotIf(po.IsCompl()))
	}
	clean, _ := miter.Clean(out)
	return clean
}

// sameReduction fails unless Reduce(g, merges) matches the reference in
// node, AND and PO counts and in every PO's value on random vectors. It
// returns Reduce's result.
func sameReduction(t *testing.T, label string, g *aig.AIG, merges []miter.Merge, rng *rand.Rand) *aig.AIG {
	t.Helper()
	got, _, err := miter.Reduce(g, merges)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := fullReduce(g, merges)
	if got.NumNodes() != want.NumNodes() || got.NumAnds() != want.NumAnds() ||
		got.NumPIs() != want.NumPIs() || got.NumPOs() != want.NumPOs() {
		t.Fatalf("%s: Reduce has %d nodes, %d ANDs, %d PIs, %d POs; the full rebuild %d, %d, %d, %d",
			label, got.NumNodes(), got.NumAnds(), got.NumPIs(), got.NumPOs(),
			want.NumNodes(), want.NumAnds(), want.NumPIs(), want.NumPOs())
	}
	in := make([]bool, g.NumPIs())
	for v := 0; v < 64; v++ {
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		a, b := got.Eval(in), want.Eval(in)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: PO %d differs from the full rebuild on vector %d", label, i, v)
			}
		}
	}
	return got
}

// benchMiters returns miters of benchmark families against their resyn2
// selves, plus one control fabric.
func benchMiters(t *testing.T) map[string]*aig.AIG {
	t.Helper()
	out := map[string]*aig.AIG{}
	for _, f := range []struct {
		name  string
		scale int
	}{{"multiplier", 6}, {"sin", 6}, {"voter", 3}, {"hyp", 4}, {"adder", 16}} {
		g, err := gen.Benchmark(f.name, f.scale)
		if err != nil {
			t.Fatal(err)
		}
		g = aig.DoubleN(g, 1)
		m, err := miter.Build(g, opt.Resyn2(g, nil))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("%s-%dx1", f.name, f.scale)] = m
	}
	g, err := gen.Control(gen.StyleAC97, 4, 97)
	if err != nil {
		t.Fatal(err)
	}
	m, err := miter.Build(g, opt.Resyn2(g, nil))
	if err != nil {
		t.Fatal(err)
	}
	out["ac97-w4"] = m
	return out
}

// TestReduceMatchesFullRebuildRandomMerges applies random merge sets, of
// any soundness, to benchmark miters: Reduce, which rebuilds only the live
// cone, must give the graph the full rebuild gives.
func TestReduceMatchesFullRebuildRandomMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, m := range benchMiters(t) {
		var ands []int
		for id := 1; id < m.NumNodes(); id++ {
			if m.IsAnd(id) {
				ands = append(ands, id)
			}
		}
		for trial := 0; trial < 6; trial++ {
			merged := map[int]bool{}
			var merges []miter.Merge
			for n := 1 + rng.Intn(len(ands)/4+1); len(merges) < n; {
				id := ands[rng.Intn(len(ands))]
				if merged[id] {
					continue
				}
				merged[id] = true
				var t aig.Lit // constant, or an older node
				if k := rng.Intn(id); k > 0 && rng.Intn(4) > 0 {
					t = aig.MakeLit(k, false)
				}
				merges = append(merges, miter.Merge{Member: int32(id), Target: t.NotIf(rng.Intn(2) == 0)})
			}
			sameReduction(t, fmt.Sprintf("%s trial %d", name, trial), m, merges, rng)
		}
	}
}

// TestReduceMatchesFullRebuildEngineMerges replays the merges of real
// engine runs, phase by phase, on the miter each phase reduced. One L
// phase keeps the journal's phases apart.
func TestReduceMatchesFullRebuildEngineMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	def := core.DefaultConfig()
	def.MaxLocalPhases = 1
	def.Dev = par.NewDevice(2)
	tight := def // small supports leave work to G and L
	tight.KP, tight.Kp, tight.Kg = 10, 10, 10
	replayed := map[core.PhaseKind]int{}
	for name, m := range benchMiters(t) {
		for _, cfg := range []core.Config{def, tight} {
			res := core.CheckMiter(m, cfg)
			cur := m
			for kind := core.PhaseP; kind <= core.PhaseL; kind++ {
				var merges []miter.Merge
				for _, p := range res.Journal {
					if p.Phase == kind {
						merges = append(merges, miter.Merge{Member: p.Member, Target: p.Target})
					}
				}
				if len(merges) > 0 {
					cur = sameReduction(t, fmt.Sprintf("%s KP=%d after %v", name, cfg.KP, kind), cur, merges, rng)
					replayed[kind]++
				}
			}
		}
	}
	if replayed[core.PhaseP] == 0 || replayed[core.PhaseG] == 0 || replayed[core.PhaseL] == 0 {
		t.Fatalf("phases replayed: %v, want every kind", replayed)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReduceCostsOnlyTheLiveCone pins Reduce's cost to the live cone: on a
// miter of more than 10k ANDs with every PO merged to zero, nothing is
// live but the PIs, so Reduce must allocate well under half of what a Go
// map with one entry per AND of the input takes.
func TestReduceCostsOnlyTheLiveCone(t *testing.T) {
	g, err := gen.Benchmark("vga_lcd", 4)
	if err != nil {
		t.Fatal(err)
	}
	g = aig.DoubleN(g, 1)
	m, err := miter.Build(g, opt.Resyn2(g, nil))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumAnds() < 10000 {
		t.Fatalf("miter has %d ANDs, want at least 10k", m.NumAnds())
	}
	var merges []miter.Merge
	seen := map[int]bool{}
	for i := 0; i < m.NumPOs(); i++ {
		po := m.PO(i)
		if po.ID() != 0 && !seen[po.ID()] {
			seen[po.ID()] = true
			merges = append(merges, miter.Merge{Member: int32(po.ID()), Target: aig.False.NotIf(po.IsCompl())})
		}
	}
	var red *aig.AIG
	cost := allocated(func() {
		var err error
		if red, _, err = miter.Reduce(m, merges); err != nil {
			t.Fatal(err)
		}
	})
	if !miter.IsProved(red) || red.NumAnds() != 0 {
		t.Fatalf("reduced miter: %d ANDs, proved %v", red.NumAnds(), miter.IsProved(red))
	}
	var table map[uint64]int32
	strash := allocated(func() { table = make(map[uint64]int32, m.NumAnds()) })
	runtime.KeepAlive(table)
	if cost*2 > strash {
		t.Fatalf("Reduce allocated %d bytes; a map over the %d ANDs of the input takes %d", cost, m.NumAnds(), strash)
	}
	t.Logf("Reduce allocated %d bytes; a map over the %d ANDs of the input takes %d", cost, m.NumAnds(), strash)
}
