package cuts

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/ec"
	"simsweep/internal/fault"
	"simsweep/internal/gen"
	"simsweep/internal/par"
)

// randAIG builds a random 6-PI DAG with roughly nand AND nodes. Random
// literal complementation plus a small input space makes coincidental
// functional equivalences — and therefore non-trivial classes — common.
func randAIG(r *rand.Rand, nand int) *aig.AIG {
	g := aig.New()
	lits := make([]aig.Lit, 0, nand+6)
	for i := 0; i < 6; i++ {
		lits = append(lits, g.AddPI())
	}
	for i := 0; i < nand; i++ {
		a := lits[r.Intn(len(lits))]
		b := lits[r.Intn(len(lits))]
		if r.Intn(2) == 1 {
			a = a.Not()
		}
		if r.Intn(2) == 1 {
			b = b.Not()
		}
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < 4; i++ {
		g.AddPO(lits[len(lits)-1-i])
	}
	return g
}

// exactClasses simulates all 64 input patterns of a ≤6-PI graph in one
// word, so the resulting classes are exact functional equivalences. On a
// wider graph PI i reuses the pattern of PI i mod 6, so the classes are
// those of that aliased function: still a well-formed class set, which is
// all a differential run of two cut kernels needs.
func exactClasses(g *aig.AIG) *ec.Manager {
	vars := [6]uint64{
		0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
	}
	val := make([]uint64, g.NumNodes())
	pi := 0
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsPI(id) {
			val[id] = vars[pi%6]
			pi++
			continue
		}
		f0, f1 := g.Fanins(id)
		v0, v1 := val[f0.ID()], val[f1.ID()]
		if f0.IsCompl() {
			v0 = ^v0
		}
		if f1.IsCompl() {
			v1 = ^v1
		}
		val[id] = v0 & v1
	}
	return ec.Build(g.NumNodes(),
		func(id int) []uint64 { return []uint64{val[id]} },
		func(id int) bool { return true })
}

// cutKey serialises a cut for comparison.
func cutKey(c Cut) string {
	return fmt.Sprintf("%v fo=%g lv=%g", c.Leaves, c.AvgFanout, c.AvgLevel)
}

// pairKey identifies a candidate pair.
func pairKey(p ec.Pair) string {
	return fmt.Sprintf("%d/%d/%v", p.Repr, p.Member, p.Compl)
}

// collectRun runs one pass and deep-copies the emissions (the strata
// kernel's cut leaves are arena-backed and recycled on the next Run).
func collectRun(t *testing.T, gen *Generator, pass Pass, m *ec.Manager) []PairCuts {
	t.Helper()
	var out []PairCuts
	err := gen.Run(pass, m, func(pc PairCuts) {
		cp := PairCuts{Pair: pc.Pair, Cuts: make([]Cut, len(pc.Cuts))}
		for i, c := range pc.Cuts {
			cp.Cuts[i] = Cut{
				Leaves:    append([]int32(nil), c.Leaves...),
				AvgFanout: c.AvgFanout,
				AvgLevel:  c.AvgLevel,
			}
		}
		out = append(out, cp)
	})
	if err != nil {
		t.Fatalf("Run(%v): %v", pass, err)
	}
	return out
}

// propertyGraph is one input of the differential property test.
type propertyGraph struct {
	name string
	g    *aig.AIG
}

// propertyGraphs returns the inputs of the differential property test:
// seeded random AIGs, plus small benchmark-family circuits whose
// structure — reconvergent arithmetic, wide control fan-in — random DAGs
// do not have. The family circuits are used as generated: their resyn2
// miters would need internal/opt, which imports this package.
func propertyGraphs(t *testing.T) []propertyGraph {
	t.Helper()
	var out []propertyGraph
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		out = append(out, propertyGraph{fmt.Sprintf("random-%d", seed), randAIG(r, 120+r.Intn(150))})
	}
	for _, f := range []struct {
		name  string
		scale int
	}{{"voter", 2}, {"ac97_ctrl", 2}, {"multiplier", 6}} {
		g, err := gen.Benchmark(f.name, f.scale)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, propertyGraph{fmt.Sprintf("%s-%d", f.name, f.scale), g})
	}
	return out
}

// TestStrataMatchesReference is the differential property test: on seeded
// random AIGs and small benchmark-family circuits, across all three passes
// and several configurations, the strata kernel must emit the same
// PairCuts (order-insensitive per pair) as the retained per-level
// reference, and keep identical per-node priority cuts.
func TestStrataMatchesReference(t *testing.T) {
	configs := []Config{
		{K: 8, C: 8},
		{K: 4, C: 2, Budget: 3},
		{K: 2, C: 3},
		{K: 6, C: 4, NoSimilarity: true},
		{K: 5, C: 3, KeepDominated: true},
		{K: 8, C: 8, StrataNodes: 1}, // per-level strata, still the wave kernel
	}
	for _, pg := range propertyGraphs(t) {
		g := pg.g
		m := exactClasses(g)
		for ci, cfg := range configs {
			refCfg := cfg
			refCfg.Reference = true
			refCfg.StrataNodes = 0
			ref := NewGenerator(g, par.NewDevice(4), refCfg)
			got := NewGenerator(g, par.NewDevice(4), cfg)
			for _, pass := range Passes {
				want := collectRun(t, ref, pass, m)
				have := collectRun(t, got, pass, m)
				comparePairCuts(t, fmt.Sprintf("%s cfg=%d pass=%v", pg.name, ci, pass), want, have)
				for id := 1; id < g.NumNodes(); id++ {
					if !g.IsAnd(id) {
						continue
					}
					w, h := ref.PriorityCuts(id), got.PriorityCuts(id)
					if len(w) != len(h) {
						t.Fatalf("%s cfg=%d pass=%v node %d: %d priority cuts vs reference %d",
							pg.name, ci, pass, id, len(h), len(w))
					}
					for k := range w {
						if cutKey(w[k]) != cutKey(h[k]) {
							t.Fatalf("%s cfg=%d pass=%v node %d cut %d: %s vs reference %s",
								pg.name, ci, pass, id, k, cutKey(h[k]), cutKey(w[k]))
						}
					}
				}
			}
		}
	}
}

// comparePairCuts asserts the two emission streams carry the same pairs
// with the same cut sets (order-insensitive within a pair).
func comparePairCuts(t *testing.T, ctx string, want, have []PairCuts) {
	t.Helper()
	if len(want) != len(have) {
		t.Fatalf("%s: emitted %d PairCuts, reference emitted %d", ctx, len(have), len(want))
	}
	index := func(list []PairCuts) map[string][]string {
		out := make(map[string][]string, len(list))
		for _, pc := range list {
			keys := make([]string, len(pc.Cuts))
			for i, c := range pc.Cuts {
				keys[i] = cutKey(c)
			}
			sort.Strings(keys)
			out[pairKey(pc.Pair)] = keys
		}
		return out
	}
	w, h := index(want), index(have)
	for pk, wc := range w {
		hc, ok := h[pk]
		if !ok {
			t.Fatalf("%s: pair %s missing from strata emissions", ctx, pk)
		}
		if len(wc) != len(hc) {
			t.Fatalf("%s: pair %s has %d cuts, reference %d", ctx, pk, len(hc), len(wc))
		}
		for i := range wc {
			if wc[i] != hc[i] {
				t.Fatalf("%s: pair %s cut mismatch:\n  strata   %s\n  reference %s", ctx, pk, hc[i], wc[i])
			}
		}
	}
}

// TestStrataLaunchCount mirrors the sim package's window-dispatch test: on
// a deep chain, the strata kernel must issue at least 10× fewer launches
// than the per-level reference.
func TestStrataLaunchCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := aig.New()
	pis := make([]aig.Lit, 6)
	for i := range pis {
		pis[i] = g.AddPI()
	}
	cur := g.And(pis[0], pis[1])
	for i := 0; i < 800; i++ {
		next := pis[r.Intn(len(pis))]
		if r.Intn(2) == 1 {
			next = next.Not()
		}
		cur = g.And(cur, next)
	}
	g.AddPO(cur)
	m := exactClasses(g)

	refDev, dev := par.NewDevice(4), par.NewDevice(4)
	ref := NewGenerator(g, refDev, Config{K: 8, C: 8, Reference: true})
	gen := NewGenerator(g, dev, Config{K: 8, C: 8})
	for _, pass := range Passes {
		if err := ref.Run(pass, m, func(PairCuts) {}); err != nil {
			t.Fatalf("reference Run(%v): %v", pass, err)
		}
		if err := gen.Run(pass, m, func(PairCuts) {}); err != nil {
			t.Fatalf("Run(%v): %v", pass, err)
		}
	}
	refLaunches := refDev.Stats()["cuts.level"].Launches
	launches := dev.Stats()["cuts.strata"].Launches
	if launches == 0 || refLaunches == 0 {
		t.Fatalf("kernels missing from stats: strata=%d reference=%d", launches, refLaunches)
	}
	if launches*10 > refLaunches {
		t.Fatalf("launch reduction below 10x: %d strata launches vs %d per-level launches\n%s",
			launches, refLaunches, dev.Profile())
	}
	if gen.NumLevels()*len(Passes) != refLaunches {
		t.Fatalf("NumLevels=%d (×%d passes) disagrees with reference launches %d",
			gen.NumLevels(), len(Passes), refLaunches)
	}
}

// TestStrataFaultTermination injects a chunk panic into the enumeration
// wave: the spinning sibling chunks must observe the failure and bail, so
// Run returns the KernelPanicError instead of deadlocking.
func TestStrataFaultTermination(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := aig.New()
	pis := make([]aig.Lit, 6)
	for i := range pis {
		pis[i] = g.AddPI()
	}
	cur := g.And(pis[0], pis[1])
	for i := 0; i < 1200; i++ {
		cur = g.And(cur, pis[r.Intn(len(pis))])
	}
	g.AddPO(cur)
	m := exactClasses(g)

	dev := par.NewDevice(4)
	dev.SetFaults(fault.MustParse("par.worker.panic:at=2", 1))
	gen := NewGenerator(g, dev, Config{K: 8, C: 8})
	errc := make(chan error, 1)
	go func() {
		errc <- gen.Run(PassFanout, m, func(PairCuts) {})
	}()
	select {
	case err := <-errc:
		var kp *par.KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("Run returned %v, want KernelPanicError", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked after injected chunk panic")
	}
	// The generator (and device) must stay usable after the failed pass.
	dev.SetFaults(nil)
	if err := gen.Run(PassFanout, m, func(PairCuts) {}); err != nil {
		t.Fatalf("Run after recovered fault: %v", err)
	}
}
