// Package miter builds and reduces miters for combinational equivalence
// checking. A miter (Brand 1993) shares the primary inputs of the two
// circuits under comparison and XORs corresponding primary-output pairs;
// the circuits are equivalent iff every miter output is constant zero.
//
// Reduction is performed FRAIG-style: given a set of proved node
// equivalences, the cone the outputs still reach is rebuilt through the
// structural hash table with every proved member replaced by its
// representative literal, then cleaned. Node merging therefore never
// mutates a graph in place.
package miter

import (
	"fmt"

	"simsweep/internal/aig"
)

// Build constructs the miter of a and b. The circuits must agree in PI and
// PO counts; PIs are matched positionally, as are POs.
func Build(a, b *aig.AIG) (*aig.AIG, error) {
	if a.NumPIs() != b.NumPIs() {
		return nil, fmt.Errorf("miter: PI count mismatch: %d vs %d", a.NumPIs(), b.NumPIs())
	}
	if a.NumPOs() != b.NumPOs() {
		return nil, fmt.Errorf("miter: PO count mismatch: %d vs %d", a.NumPOs(), b.NumPOs())
	}
	// Both circuits plus three ANDs per output XOR bound the miter's size.
	m := aig.NewSized(1 + a.NumPIs() + a.NumAnds() + b.NumAnds() + 3*a.NumPOs())
	m.Name = "miter"
	pis := make([]aig.Lit, a.NumPIs())
	for i := range pis {
		pis[i] = m.AddPI()
	}
	outA := appendShared(m, a, pis)
	outB := appendShared(m, b, pis)
	for i := range outA {
		m.AddPO(m.Xor(outA[i], outB[i]))
	}
	return m, nil
}

// appendShared copies g into m reusing the shared PI literals, returning
// the mapped PO literals.
func appendShared(m *aig.AIG, g *aig.AIG, pis []aig.Lit) []aig.Lit {
	lit := make([]aig.Lit, g.NumNodes())
	lit[0] = aig.False
	piIdx := 0
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsPI(id) {
			lit[id] = pis[piIdx]
			piIdx++
			continue
		}
		// Fanins precede id, so both images are m's literals already.
		f0, f1 := g.Fanins(id)
		lit[id] = aig.UncheckedAnd(m,
			lit[f0.ID()].NotIf(f0.IsCompl()),
			lit[f1.ID()].NotIf(f1.IsCompl()),
		)
	}
	outs := make([]aig.Lit, g.NumPOs())
	for i := range outs {
		po := g.PO(i)
		outs[i] = lit[po.ID()].NotIf(po.IsCompl())
	}
	return outs
}

// Merge records one proved equivalence: node Member computes
// Target-as-a-literal (which may be a constant, e.g. aig.False for a proved
// constant-zero node). Target must refer to a node with a smaller id than
// Member so rebuilding in id order sees the target first.
type Merge struct {
	Member int32
	Target aig.Lit
}

// Reduce rebuilds g with all merges applied, cleans dangling logic, and
// returns the reduced AIG together with the old-node → new-literal mapping.
// Only the live cone is rebuilt: the nodes the POs still reach once every
// merged member is replaced by its target. Nodes outside it map to a
// constant; merged-away members map to their representative's image.
func Reduce(g *aig.AIG, merges []Merge) (*aig.AIG, []aig.Lit, error) {
	n := g.NumNodes()
	// lit[id] holds the merge target of member id plus one (0: not merged)
	// until the rebuild below reaches id and stores its image.
	lit := make([]aig.Lit, n)
	for _, m := range merges {
		if int(m.Member) >= n {
			return nil, nil, fmt.Errorf("miter: merge member %d out of range", m.Member)
		}
		if m.Target.ID() >= int(m.Member) {
			return nil, nil, fmt.Errorf("miter: merge target %v not older than member %d", m.Target, m.Member)
		}
		if lit[m.Member] != 0 {
			return nil, nil, fmt.Errorf("miter: node %d merged twice", m.Member)
		}
		lit[m.Member] = m.Target + 1
	}

	// One descending-id pass marks the live cone: fanins and merge targets
	// are older than the nodes that name them.
	live := make([]bool, n)
	for i := 0; i < g.NumPOs(); i++ {
		live[g.PO(i).ID()] = true
	}
	ands := 0
	for id := n - 1; id > 0; id-- {
		switch {
		case !live[id]:
		case lit[id] != 0:
			live[(lit[id] - 1).ID()] = true
		case g.IsAnd(id):
			ands++
			f0, f1 := g.Fanins(id)
			live[f0.ID()] = true
			live[f1.ID()] = true
		}
	}

	out := aig.NewSized(1 + g.NumPIs() + ands)
	out.Name = g.Name
	for id := 1; id < n; id++ {
		switch {
		case lit[id] != 0:
			t := lit[id] - 1
			lit[id] = lit[t.ID()].NotIf(t.IsCompl())
		case g.IsPI(id):
			lit[id] = out.AddPI()
		case live[id]:
			// Fanins precede id, so both images are out's literals already.
			f0, f1 := g.Fanins(id)
			lit[id] = aig.UncheckedAnd(out,
				lit[f0.ID()].NotIf(f0.IsCompl()),
				lit[f1.ID()].NotIf(f1.IsCompl()),
			)
		}
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		out.AddPO(lit[po.ID()].NotIf(po.IsCompl()))
	}
	// Strashing can still orphan live nodes (a fanin folded to a constant
	// drops the other fanin's cone). Only then is there anything to clean:
	// otherwise Clean would copy out node for node.
	needed, kept := poCone(out)
	if kept == out.NumAnds() {
		return out, lit, nil
	}
	clean, cleanMap := rebuild(out, needed, kept)
	for id, l := range lit {
		lit[id] = cleanMap[l.ID()].NotIf(l.IsCompl())
	}
	return clean, lit, nil
}

// Clean rebuilds g keeping only the logic reachable from its POs. All PIs
// are preserved (positionally) even when unused, so pattern banks indexed
// by PI stay valid. The returned mapping sends old node ids to new
// literals; unreachable AND nodes map to aig.False.
func Clean(g *aig.AIG) (*aig.AIG, []aig.Lit) {
	needed, ands := poCone(g)
	return rebuild(g, needed, ands)
}

// LiveAnds counts the AND nodes in the PO cones of g — the miter size that
// the "Reduced (%)" metric is measured on. Every AIG is built through the
// strashing aig.And, so no two cone nodes have the same fanins and the
// count equals the AND count of the Clean rebuild, without building it.
func LiveAnds(g *aig.AIG) int {
	_, ands := poCone(g)
	return ands
}

// poCone marks the nodes the POs of g reach, in one descending-id pass
// (ids are topological), and counts the ANDs among them.
func poCone(g *aig.AIG) (needed []bool, ands int) {
	needed = make([]bool, g.NumNodes())
	for i := 0; i < g.NumPOs(); i++ {
		needed[g.PO(i).ID()] = true
	}
	for id := g.NumNodes() - 1; id > 0; id-- {
		if !needed[id] || !g.IsAnd(id) {
			continue
		}
		ands++
		f0, f1 := g.Fanins(id)
		needed[f0.ID()] = true
		needed[f1.ID()] = true
	}
	return needed, ands
}

// rebuild copies the PIs, the needed ANDs (ands of them) and the POs of g
// into a fresh AIG, returning it and the old-node → new-literal mapping.
func rebuild(g *aig.AIG, needed []bool, ands int) (*aig.AIG, []aig.Lit) {
	out := aig.NewSized(1 + g.NumPIs() + ands)
	out.Name = g.Name
	lit := make([]aig.Lit, g.NumNodes())
	for id := 1; id < g.NumNodes(); id++ {
		switch {
		case g.IsPI(id):
			lit[id] = out.AddPI()
		case needed[id]:
			// Fanins precede id, so both images are out's literals already.
			f0, f1 := g.Fanins(id)
			lit[id] = aig.UncheckedAnd(out,
				lit[f0.ID()].NotIf(f0.IsCompl()),
				lit[f1.ID()].NotIf(f1.IsCompl()),
			)
		}
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		out.AddPO(lit[po.ID()].NotIf(po.IsCompl()))
	}
	return out, lit
}

// IsProved reports whether every miter output is the constant-zero literal,
// i.e. the two circuits are proved equivalent.
func IsProved(g *aig.AIG) bool {
	for i := 0; i < g.NumPOs(); i++ {
		if g.PO(i) != aig.False {
			return false
		}
	}
	return true
}

// IsDisprovedStructurally reports whether some miter output is the
// constant-one literal.
func IsDisprovedStructurally(g *aig.AIG) bool {
	for i := 0; i < g.NumPOs(); i++ {
		if g.PO(i) == aig.True {
			return true
		}
	}
	return false
}
