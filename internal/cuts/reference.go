package cuts

import (
	"sort"

	"simsweep/internal/ec"
)

// This file retains the original per-level enumeration as a reference
// implementation, selected by Config.Reference. It dispatches one
// "cuts.level" launch per enumeration level and allocates freely in the
// kernel body — the exact shape the strata kernel replaced — but computes
// the same cuts: the property tests diff the two implementations on random
// and benchmark-family AIGs, and BenchmarkCutsPassReference measures it as
// the before side of the kernel's before/after benchmark.
// The one repair it did receive is the historical double hashLeaves per
// accepted cut (the hash is now computed once and threaded through
// addUnique).

// referenceRun is the per-level Run (the original Generator.Run), with the
// emit contract and error semantics of Run.
func (gen *Generator) referenceRun(pass Pass, m *ec.Manager, emit func(PairCuts)) error {
	g := gen.g
	el := gen.EnumerationLevels(m)
	maxLevel := int32(0)
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsAnd(id) && el[id] > maxLevel {
			maxLevel = el[id]
		}
	}
	byLevel := make([][]int32, maxLevel+1)
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsAnd(id) {
			byLevel[el[id]] = append(byLevel[el[id]], int32(id))
		}
	}

	gen.pcuts = make([][]Cut, g.NumNodes())
	for i := 0; i < g.NumPIs(); i++ {
		id := g.PIID(i)
		gen.pcuts[id] = []Cut{gen.makeCut([]int32{int32(id)})}
	}

	results := make([]*PairCuts, g.NumNodes())
	emitted := int64(0)
	for l := int32(1); l <= maxLevel; l++ {
		batch := byLevel[l]
		err := gen.dev.LaunchChunked("cuts.level", len(batch), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				id := int(batch[i])
				repr, nonRepr := m.Repr(id)
				var simTo []Cut
				if nonRepr && repr != 0 && !gen.cfg.NoSimilarity {
					simTo = gen.pcuts[repr]
				}
				gen.pcuts[id] = gen.referenceEnumerateNode(id, pass, simTo)
				if !nonRepr {
					continue
				}
				pair, _ := m.PairOf(id)
				var common []Cut
				if repr == 0 {
					// Candidate constant: any cut of the member works,
					// since the comparison is against constant zero.
					common = gen.pcuts[id]
				} else {
					common = gen.referenceCommonCuts(gen.pcuts[repr], gen.pcuts[id])
				}
				if len(common) > 0 {
					results[id] = &PairCuts{Pair: pair, Cuts: common}
				}
			}
		})
		gen.stats.Launches++
		if err != nil {
			// Higher levels would enumerate from the poisoned cut sets of
			// this one; stop here. Nothing from the failed level is emitted.
			return err
		}
		for _, id := range batch {
			if pc := results[id]; pc != nil {
				emit(*pc)
				emitted++
				results[id] = nil
			}
		}
	}
	gen.stats.Passes++
	gen.stats.Nodes += int64(g.NumAnds())
	gen.stats.Pairs += emitted
	return nil
}

// referenceEnumerateNode is the original allocation-heavy enumerateNode.
func (gen *Generator) referenceEnumerateNode(id int, pass Pass, simTo []Cut) []Cut {
	f0, f1 := gen.g.Fanins(id)
	set0 := withTrivial(gen.pcuts[f0.ID()], int32(f0.ID()))
	set1 := withTrivial(gen.pcuts[f1.ID()], int32(f1.ID()))

	var cands []Cut
	seen := make(map[uint64][]int)
outer:
	for _, u := range set0 {
		for _, v := range set1 {
			leaves := unionSorted(u.Leaves, v.Leaves)
			if len(leaves) > gen.cfg.K {
				continue
			}
			h := hashLeaves(leaves)
			if !addUnique(seen, cands, h, leaves) {
				continue
			}
			c := gen.makeCut(leaves)
			seen[h] = append(seen[h], len(cands))
			cands = append(cands, c)
			if len(cands) >= gen.budget {
				break outer
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	if !gen.cfg.KeepDominated {
		cands = filterDominated(cands)
	}
	var sims []float32
	if simTo != nil {
		sims = make([]float32, len(cands))
		for i := range cands {
			sims[i] = Similarity(cands[i].Leaves, simTo)
		}
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if sims != nil && sims[i] != sims[j] {
			return sims[i] > sims[j]
		}
		return betterCut(pass, &cands[i], &cands[j])
	})
	n := gen.cfg.C
	if n > len(order) {
		n = len(order)
	}
	out := make([]Cut, n)
	for i := 0; i < n; i++ {
		out[i] = cands[order[i]]
	}
	return out
}

// referenceCommonCuts is the original allocation-heavy commonCuts.
func (gen *Generator) referenceCommonCuts(pa, pb []Cut) []Cut {
	var out []Cut
	seen := make(map[uint64][]int)
outer:
	for _, u := range pa {
		for _, v := range pb {
			leaves := unionSorted(u.Leaves, v.Leaves)
			if len(leaves) > gen.cfg.K {
				continue
			}
			h := hashLeaves(leaves)
			if !addUnique(seen, out, h, leaves) {
				continue
			}
			seen[h] = append(seen[h], len(out))
			out = append(out, gen.makeCut(leaves))
			if len(out) >= gen.budget {
				break outer
			}
		}
	}
	return out
}

// filterDominated removes cuts that are proper supersets of another
// candidate: a dominated cut can never beat its dominator on size and
// covers no additional logic (standard cut-enumeration pruning). The
// strata kernel's bucketed scratch.filterDominated computes the same
// predicate.
func filterDominated(cands []Cut) []Cut {
	out := cands[:0]
	for i := range cands {
		dominated := false
		for j := range cands {
			if i == j || len(cands[j].Leaves) >= len(cands[i].Leaves) {
				continue
			}
			if isSubset(cands[j].Leaves, cands[i].Leaves) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, cands[i])
		}
	}
	return out
}

func withTrivial(cuts []Cut, id int32) []Cut {
	out := make([]Cut, 0, len(cuts)+1)
	out = append(out, cuts...)
	return append(out, Cut{Leaves: []int32{id}})
}

func unionSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// addUnique reports whether leaves (with precomputed hash h) is not yet
// present in the cut list indexed by seen (a hash → indices map over
// existing).
func addUnique(seen map[uint64][]int, existing []Cut, h uint64, leaves []int32) bool {
	for _, idx := range seen[h] {
		if sameLeaves(existing[idx].Leaves, leaves) {
			return false
		}
	}
	return true
}
