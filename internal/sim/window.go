package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"simsweep/internal/aig"
)

// Spec describes a simulation window before its cone is materialised: the
// root nodes whose truth tables are wanted, the input nodes of the window,
// and the indices (into the caller's pair batch) of the candidate pairs the
// window decides. Window merging operates on Specs.
type Spec struct {
	Roots   []int32 // root node ids, deduplicated
	Inputs  []int32 // sorted input node ids
	PairIdx []int32 // indices into the batch pair slice
}

// Window is a materialised simulation window: the Spec plus the cone of AND
// nodes between the inputs and the roots, in topological order (every node
// after its fanins in the window). Per the paper, a window contains the
// intersection of the TFIs of the roots with the TFOs of the inputs, plus
// the roots themselves.
type Window struct {
	Spec
	Nodes []int32
}

// NumSlots returns the number of simulation-table entries the window needs.
func (w *Window) NumSlots() int { return len(w.Inputs) + len(w.Nodes) }

// TTWords returns the full truth-table length of the window in 64-bit
// words: max(1, 2^(k−6)) for k inputs.
func (w *Window) TTWords() int { return TTWords(len(w.Inputs)) }

// TTWords returns the truth-table length in 64-bit words of a function of
// k inputs: max(1, 2^(k−6)).
func TTWords(k int) int {
	if k <= 6 {
		return 1
	}
	return 1 << uint(k-6)
}

// buildScratch is the reusable state of one BuildWindow call: a dense
// per-node stamp (mark[id] == epoch: the node is an input or already
// expanded in this call) and the depth-first stack. Bumping the epoch
// clears every stamp at once, so a call touches only the nodes of its cone.
type buildScratch struct {
	mark  []uint32
	epoch uint32
	stack []int32
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// begin opens a fresh epoch over n node ids.
func (sc *buildScratch) begin(n int) {
	if len(sc.mark) < n {
		sc.mark = make([]uint32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(sc.mark)
		sc.epoch = 1
	}
}

// BuildWindow materialises the cone of spec's roots stopped at its inputs,
// in depth-first post-order: a node follows its fanins, which is all the
// simulation kernel asks of the order, so the cone needs no sort. It fails
// if the cone escapes the inputs (some path from a root reaches a PI or the
// constant that is not an input), which means the inputs were not a cut of
// the roots. Its scratch comes from a pool, so concurrent calls are safe
// and a call allocates only the window it returns.
func BuildWindow(g *aig.AIG, spec Spec) (*Window, error) {
	sc := buildPool.Get().(*buildScratch)
	defer buildPool.Put(sc)
	nodes, err := sc.cone(g, spec)
	if err != nil {
		return nil, err
	}
	return &Window{Spec: spec, Nodes: nodes}, nil
}

// cone collects the AND nodes of spec's window in depth-first post-order.
// A stack entry id is a node to expand, and ^id (negative) a node whose
// fanins are expanded, emitted when it is popped. A node is stamped when
// it is expanded, so it may sit on the stack more than once; the later
// copies are skipped. A fanin cannot be on the stack expanded but not yet
// emitted, as that would be a cycle.
func (sc *buildScratch) cone(g *aig.AIG, spec Spec) ([]int32, error) {
	sc.begin(g.NumNodes())
	mark, ep := sc.mark, sc.epoch
	for _, id := range spec.Inputs {
		mark[id] = ep
	}
	stack := sc.stack[:0]
	defer func() { sc.stack = stack[:0] }()
	for i := len(spec.Roots) - 1; i >= 0; i-- {
		stack = append(stack, spec.Roots[i])
	}
	var nodes []int32
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		if id < 0 {
			stack = stack[:len(stack)-1]
			nodes = append(nodes, ^id)
			continue
		}
		if mark[id] == ep || id == 0 {
			// Expanded already, an input, or the constant (a constant
			// root is handled specially by the checker).
			stack = stack[:len(stack)-1]
			continue
		}
		if g.IsPI(int(id)) {
			return nil, fmt.Errorf("sim: window inputs do not cut PI %d from the roots", id)
		}
		mark[id] = ep
		stack[len(stack)-1] = ^id
		f0, f1 := g.Fanins(int(id))
		if fid := int32(f1.ID()); mark[fid] != ep {
			stack = append(stack, fid)
		}
		if fid := int32(f0.ID()); mark[fid] != ep {
			stack = append(stack, fid)
		}
	}
	return nodes, nil
}

// MergeSpecs performs window merging (paper §III-B3), restricted to merges
// that save simulation work. The specs are sorted in lexicographic order of
// their input vectors; each then joins the first group whose merged input
// set stays within ks inputs and whose merged truth table is no longer than
// the group's and the spec's tables together, TTWords(union) ≤
// TTWords(group) + TTWords(spec). Otherwise it opens a new group. So
// windows over disjoint supports merge only while the union has at most 7
// inputs — beyond that its table is the product of theirs, not the sum —
// while nested supports merge however the order interleaves them with
// other components. The paper merges neighbours while the union fits
// within ks, which fuses the two copies of a doubled circuit into one
// window over both copies' inputs. The returned specs carry the unions of
// roots and pair indices.
func MergeSpecs(specs []Spec, ks int) []Spec {
	if len(specs) <= 1 {
		return specs
	}
	sorted := slices.Clone(specs)
	slices.SortStableFunc(sorted, func(a, b Spec) int { return slices.Compare(a.Inputs, b.Inputs) })
	var groups []Spec
next:
	for _, s := range sorted {
		for gi := range groups {
			grp := &groups[gi]
			// The union adds the spec's inputs missing from the group;
			// slack is how many it may add.
			slack := min(ks, mergeLimit(len(grp.Inputs), len(s.Inputs))) - len(grp.Inputs)
			if slack < 0 || missingExceeds(grp.Inputs, s.Inputs, slack) {
				continue
			}
			grp.Inputs = unionSorted(grp.Inputs, s.Inputs)
			grp.Roots = unionSorted(grp.Roots, s.Roots)
			grp.PairIdx = append(grp.PairIdx, s.PairIdx...)
			continue next
		}
		groups = append(groups, cloneSpec(s))
	}
	return groups
}

// mergeLimit is the largest input count whose truth table is no longer
// than those of a kg-input and a ks-input window together.
func mergeLimit(kg, ks int) int {
	return 5 + bits.Len(uint(TTWords(kg)+TTWords(ks)))
}

// missingExceeds reports whether more than slack elements of the sorted set
// b are absent from the sorted set a.
func missingExceeds(a, b []int32, slack int) bool {
	i := 0
	for _, x := range b {
		for i < len(a) && a[i] < x {
			i++
		}
		if i == len(a) || a[i] != x {
			if slack--; slack < 0 {
				return true
			}
		}
	}
	return false
}

func cloneSpec(s Spec) Spec {
	return Spec{
		Roots:   slices.Clone(s.Roots),
		Inputs:  slices.Clone(s.Inputs),
		PairIdx: slices.Clone(s.PairIdx),
	}
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
