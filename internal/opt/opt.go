// Package opt restructures AIGs while preserving their function — the
// stand-in for ABC's resyn2 script that produces the "optimized" half of
// every experimental miter. Three passes are provided: AND-tree balancing,
// and cut-based rewriting/refactoring that re-synthesises the local
// function of a node from its ISOP cover when the replacement is no larger
// than the logic it frees (DAG-aware, measured through the structural hash
// with checkpoint/rollback). Zero-cost variants accept equal-size
// replacements to perturb structure, as resyn2's -z passes do.
package opt

import (
	"sort"

	"simsweep/internal/aig"
	"simsweep/internal/cuts"
	"simsweep/internal/ec"
	"simsweep/internal/par"
	"simsweep/internal/tt"
)

// Balance rebuilds g with every maximal AND tree re-associated into a
// depth-balanced form (ABC's "balance"). The function of every PO is
// preserved; levels typically drop on chained arithmetic.
func Balance(g *aig.AIG) *aig.AIG {
	out := aig.New()
	out.Name = g.Name
	mapped := make([]aig.Lit, g.NumNodes())
	mapped[0] = aig.False
	fanouts := g.FanoutCounts()

	lv := newLeveler(out)
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsPI(id) {
			mapped[id] = out.AddPI()
			lv.sync()
			continue
		}
		if !g.IsAnd(id) {
			continue
		}
		// Gather the maximal single-fanout AND tree rooted here.
		leaves := gatherConjunction(g, id, fanouts)
		lits := make([]aig.Lit, len(leaves))
		for i, leaf := range leaves {
			lits[i] = mapped[leaf.ID()].NotIf(leaf.IsCompl())
		}
		mapped[id] = lv.balancedAnd(lits)
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		out.AddPO(mapped[po.ID()].NotIf(po.IsCompl()))
	}
	return out
}

// gatherConjunction collects the leaves of the maximal AND tree rooted at
// node id: the expansion recurses through positive-phase, single-fanout
// AND fanins (shared or complemented fanins become leaves, preserving
// sharing elsewhere in the DAG).
func gatherConjunction(g *aig.AIG, id int, fanouts []int32) []aig.Lit {
	var leaves []aig.Lit
	var walk func(l aig.Lit)
	walk = func(l aig.Lit) {
		fid := l.ID()
		if !l.IsCompl() && g.IsAnd(fid) && fanouts[fid] == 1 {
			f0, f1 := g.Fanins(fid)
			walk(f0)
			walk(f1)
			return
		}
		leaves = append(leaves, l)
	}
	f0, f1 := g.Fanins(id)
	walk(f0)
	walk(f1)
	return leaves
}

// leveler tracks node levels of a growing AIG incrementally, so balanced
// tree construction stays linear overall.
type leveler struct {
	g   *aig.AIG
	lvl []int32
}

func newLeveler(g *aig.AIG) *leveler {
	return &leveler{g: g, lvl: g.Levels()}
}

// sync extends the level array over nodes appended since the last call.
func (lv *leveler) sync() {
	for len(lv.lvl) < lv.g.NumNodes() {
		id := len(lv.lvl)
		if !lv.g.IsAnd(id) {
			lv.lvl = append(lv.lvl, 0)
			continue
		}
		f0, f1 := lv.g.Fanins(id)
		lv.lvl = append(lv.lvl, max32(lv.lvl[f0.ID()], lv.lvl[f1.ID()])+1)
	}
}

// truncate drops level entries past a rollback point.
func (lv *leveler) truncate() {
	if n := lv.g.NumNodes(); len(lv.lvl) > n {
		lv.lvl = lv.lvl[:n]
	}
}

func (lv *leveler) of(l aig.Lit) int32 { return lv.lvl[l.ID()] }

// balancedAnd conjoins the literals pairing lowest-level operands first
// (Huffman-style), minimising the depth of the resulting tree.
func (lv *leveler) balancedAnd(lits []aig.Lit) aig.Lit {
	if len(lits) == 0 {
		return aig.True
	}
	work := append([]aig.Lit(nil), lits...)
	for len(work) > 1 {
		sort.SliceStable(work, func(i, j int) bool { return lv.of(work[i]) < lv.of(work[j]) })
		n := lv.g.And(work[0], work[1])
		lv.sync()
		work = append([]aig.Lit{n}, work[2:]...)
	}
	return work[0]
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// RewriteOptions configures a rewriting pass.
type RewriteOptions struct {
	// K is the cut size of the resynthesis window: 4 approximates ABC's
	// rewrite, 8 its refactor.
	K int
	// ZeroCost accepts replacements that free exactly as many nodes as
	// they add, perturbing structure without growing it (resyn2's -z).
	ZeroCost bool
	// Dev supplies the parallel device for cut enumeration.
	Dev *par.Device
}

// Rewrite re-synthesises nodes of g from the ISOP covers of their best
// cuts, ABC-style: candidates are evaluated on a shared working graph with
// live reference counts, a replacement is accepted when the logic it adds
// (including any dead logic it would revive) is smaller than the MFFC it
// frees — or equal, with ZeroCost — and accepted replacements take effect
// in a final replacement-following rebuild. Passing K=4 gives a
// rewrite-grade pass, K=8 a refactor-grade pass. The input graph is not
// modified.
func Rewrite(g *aig.AIG, opt RewriteOptions) *aig.AIG {
	if opt.K < 3 {
		opt.K = 4
	}
	if opt.K > 14 {
		opt.K = 14
	}
	if opt.Dev == nil {
		opt.Dev = par.NewDevice(0)
	}

	work := g.Copy()
	orig := work.NumNodes()

	// Priority cuts over the original nodes, with a class-free EC manager
	// (cut steering needs no candidate pairs here).
	singletons := ec.Build(orig, func(int) []uint64 { return nil }, func(int) bool { return false })
	gen := cuts.NewGenerator(work, opt.Dev, cuts.Config{K: opt.K, C: 4, KeepDominated: true})
	if err := gen.Run(cuts.PassFanout, singletons, func(cuts.PairCuts) {}); err != nil {
		// Enumeration faulted (a recovered kernel panic): rebuilding from
		// partial cut data could change the function. Return the untouched
		// copy — rewriting is an optimisation, never worth correctness.
		return work
	}

	ref := work.FanoutCounts()
	replaced := make([]aig.Lit, orig)
	hasRepl := make([]bool, orig)
	lv := newLeveler(work)

	for id := 1; id < orig; id++ {
		if !work.IsAnd(id) || ref[id] == 0 {
			continue
		}
		best := bestCut(gen.PriorityCuts(id))
		if best == nil {
			continue
		}
		// Cuts whose leaves were themselves replaced would need
		// leaf-level translation; skip them conservatively.
		usable := true
		for _, leaf := range best.Leaves {
			if hasRepl[leaf] {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		table, ok := localTT(work, id, best.Leaves)
		if !ok {
			continue
		}
		cover := tt.ISOP(table, tt.New(table.NumVars))

		cp := work.Checkpoint()
		lit := buildCover(work, lv, cover, best.Leaves)
		// Reject a replacement whose structure contains the node being
		// replaced: strashing can hit an existing node whose cone
		// passes through id, and accepting it would make the final
		// replacement-following rebuild cyclic.
		if lit.ID() == id || coneContains(work, lit, id) {
			work.Rollback(cp)
			lv.truncate()
			continue
		}
		ref = extendRefs(ref, work, cp)
		cost := reviveCost(work, ref, lit)
		saved, touched := mffcWalk(work, ref, id, best.Leaves)
		restoreRefs(ref, touched)

		if cost < saved || (opt.ZeroCost && cost == saved) {
			// Accept: make the revived cone live, redirect id's
			// fanouts to the replacement, and kill the old cone.
			reviveRefs(work, ref, lit)
			ref[lit.ID()] += ref[id]
			_, touched = mffcWalk(work, ref, id, best.Leaves)
			_ = touched // decrements stay: the cone is dead now
			ref[id] = 0
			replaced[id] = lit
			hasRepl[id] = true
		} else {
			work.Rollback(cp)
			lv.truncate()
			ref = ref[:cp]
		}
	}
	return finalize(work, orig, replaced, hasRepl)
}

// coneContains reports whether target lies in the structural cone of lit.
// Only nodes with ids above target can reach it, so the walk prunes below.
func coneContains(g *aig.AIG, lit aig.Lit, target int) bool {
	if lit.ID() < target {
		return false
	}
	seen := map[int]bool{}
	stack := []int{lit.ID()}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == target {
			return true
		}
		if id < target || seen[id] || !g.IsAnd(id) {
			continue
		}
		seen[id] = true
		f0, f1 := g.Fanins(id)
		stack = append(stack, f0.ID(), f1.ID())
	}
	return false
}

// extendRefs grows the reference array over nodes appended since cp; new
// nodes start with zero references (they are alive only if accepted).
func extendRefs(ref []int32, g *aig.AIG, cp int) []int32 {
	for len(ref) < g.NumNodes() {
		ref = append(ref, 0)
	}
	_ = cp
	return ref
}

// reviveCost counts the nodes of lit's cone that are currently dead (zero
// references): the nodes a replacement would add to the final graph.
func reviveCost(g *aig.AIG, ref []int32, lit aig.Lit) int {
	seen := map[int]bool{}
	stack := []int{lit.ID()}
	cost := 0
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] || !g.IsAnd(id) || ref[id] > 0 {
			continue
		}
		seen[id] = true
		cost++
		f0, f1 := g.Fanins(id)
		stack = append(stack, f0.ID(), f1.ID())
	}
	return cost
}

// reviveRefs adds the structural references of lit's dead cone, making it
// live. The walk mirrors reviveCost.
func reviveRefs(g *aig.AIG, ref []int32, lit aig.Lit) {
	seen := map[int]bool{}
	stack := []int{lit.ID()}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] || !g.IsAnd(id) || ref[id] > 0 {
			continue
		}
		seen[id] = true
		f0, f1 := g.Fanins(id)
		ref[f0.ID()]++
		ref[f1.ID()]++
		stack = append(stack, f0.ID(), f1.ID())
	}
}

// mffcWalk performs the dereference walk of node id's cone stopped at the
// cut leaves: it decrements the reference of every edge leaving a dying
// node and returns the number of AND nodes that die, plus the decremented
// node ids (so a trial walk can be undone with restoreRefs).
func mffcWalk(g *aig.AIG, ref []int32, root int, leaves []int32) (int, []int32) {
	stop := make(map[int]bool, len(leaves))
	for _, l := range leaves {
		stop[int(l)] = true
	}
	var touched []int32
	size := 0
	var walk func(id int)
	walk = func(id int) {
		size++
		f0, f1 := g.Fanins(id)
		for _, f := range [2]aig.Lit{f0, f1} {
			fid := f.ID()
			ref[fid]--
			touched = append(touched, int32(fid))
			if ref[fid] == 0 && g.IsAnd(fid) && !stop[fid] {
				walk(fid)
			}
		}
	}
	walk(root)
	return size, touched
}

func restoreRefs(ref []int32, touched []int32) {
	for _, id := range touched {
		ref[id]++
	}
}

// finalize rebuilds the working graph into a clean AIG, following
// replacement edges: a replaced node maps to the image of its replacement
// literal. Replacement edges between mutually-entangled nodes can form
// cycles (each replacement's cone may strash into logic above the other);
// when the DFS detects one it falls back to the node's original structure,
// which is always sound. PIs keep their order; dangling logic disappears.
func finalize(work *aig.AIG, orig int, replaced []aig.Lit, hasRepl []bool) *aig.AIG {
	out := aig.New()
	out.Name = work.Name
	mapped := make([]aig.Lit, work.NumNodes())
	done := make([]bool, work.NumNodes())
	visiting := make([]bool, work.NumNodes())
	bypass := make([]bool, work.NumNodes())
	mapped[0] = aig.False
	done[0] = true
	for i := 0; i < work.NumPIs(); i++ {
		id := work.PIID(i)
		mapped[id] = out.AddPI()
		done[id] = true
	}
	var resolve func(id int) aig.Lit
	resolve = func(id int) aig.Lit {
		stack := []int{id}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			if done[n] {
				visiting[n] = false
				stack = stack[:len(stack)-1]
				continue
			}
			visiting[n] = true
			if n < orig && hasRepl[n] && !bypass[n] {
				r := replaced[n]
				if done[r.ID()] {
					mapped[n] = mapped[r.ID()].NotIf(r.IsCompl())
					done[n] = true
					visiting[n] = false
					stack = stack[:len(stack)-1]
					continue
				}
				if visiting[r.ID()] {
					// Replacement cycle: keep n's original structure.
					bypass[n] = true
					continue
				}
				stack = append(stack, r.ID())
				continue
			}
			f0, f1 := work.Fanins(n)
			pushed := false
			for _, f := range [2]aig.Lit{f0, f1} {
				fid := f.ID()
				if done[fid] {
					continue
				}
				if visiting[fid] {
					// A structural cycle through a replacement chain:
					// break it at the replaced ancestor.
					bypass[fid] = true
				}
				stack = append(stack, fid)
				pushed = true
			}
			if pushed {
				continue
			}
			mapped[n] = out.And(
				mapped[f0.ID()].NotIf(f0.IsCompl()),
				mapped[f1.ID()].NotIf(f1.IsCompl()),
			)
			done[n] = true
			visiting[n] = false
			stack = stack[:len(stack)-1]
		}
		return mapped[id]
	}
	for i := 0; i < work.NumPOs(); i++ {
		po := work.PO(i)
		out.AddPO(resolve(po.ID()).NotIf(po.IsCompl()))
	}
	return out
}

// bestCut picks the largest non-trivial cut (more leaves → more
// restructuring freedom for ISOP).
func bestCut(pcuts []cuts.Cut) *cuts.Cut {
	var best *cuts.Cut
	for i := range pcuts {
		c := &pcuts[i]
		if len(c.Leaves) < 2 {
			continue
		}
		if best == nil || len(c.Leaves) > len(best.Leaves) {
			best = c
		}
	}
	return best
}

// localTT evaluates the truth table of root over the cut leaves.
func localTT(g *aig.AIG, root int, leaves []int32) (tt.TT, bool) {
	k := len(leaves)
	if k > tt.MaxVars {
		return tt.TT{}, false
	}
	stop := make(map[int]bool, k)
	tabs := make(map[int32]tt.TT, k)
	for i, l := range leaves {
		stop[int(l)] = true
		tabs[l] = tt.Projection(i, k)
	}
	cone := g.ConeNodes([]int{root}, stop)
	for _, id := range cone {
		f0, f1 := g.Fanins(int(id))
		t0, ok0 := tabs[int32(f0.ID())]
		t1, ok1 := tabs[int32(f1.ID())]
		if !ok0 || !ok1 {
			return tt.TT{}, false // leaves do not cut the cone
		}
		if f0.IsCompl() {
			t0 = t0.Not()
		}
		if f1.IsCompl() {
			t1 = t1.Not()
		}
		tabs[int32(id)] = t0.And(t1)
	}
	table, ok := tabs[int32(root)]
	return table, ok
}

// buildCover synthesises an ISOP cover into the working AIG over the cut
// leaves (referenced directly as positive literals), returning the root
// literal of the cover.
func buildCover(out *aig.AIG, lv *leveler, cover []tt.Cube, leaves []int32) aig.Lit {
	var terms []aig.Lit
	for _, cube := range cover {
		var litsOfCube []aig.Lit
		for i, leaf := range leaves {
			bit := uint32(1) << uint(i)
			if cube.Mask&bit == 0 {
				continue
			}
			l := aig.MakeLit(int(leaf), false)
			litsOfCube = append(litsOfCube, l.NotIf(cube.Polarity&bit == 0))
		}
		terms = append(terms, lv.balancedAnd(litsOfCube))
	}
	var root aig.Lit
	switch len(terms) {
	case 0:
		root = aig.False
	default:
		// OR of terms = NOT(AND of negations).
		negs := make([]aig.Lit, len(terms))
		for i, t := range terms {
			negs[i] = t.Not()
		}
		root = lv.balancedAnd(negs).Not()
	}
	return root
}

// Resyn2 approximates ABC's resyn2 script with this package's passes:
// balance, rewrite, refactor, balance, zero-cost rewrite and refactor,
// balance. The result computes the same PO functions with a reshaped,
// usually smaller, structure.
func Resyn2(g *aig.AIG, dev *par.Device) *aig.AIG {
	if dev == nil {
		dev = par.NewDevice(0)
	}
	g = Balance(g)
	g = Rewrite(g, RewriteOptions{K: 4, Dev: dev})
	g = Rewrite(g, RewriteOptions{K: 8, Dev: dev})
	g = Balance(g)
	g = Rewrite(g, RewriteOptions{K: 4, ZeroCost: true, Dev: dev})
	g = Rewrite(g, RewriteOptions{K: 8, ZeroCost: true, Dev: dev})
	return Balance(g)
}
