package aig

import "fmt"

// Validate checks the structural invariants of the AIG and returns the
// first violation found, or nil. It is used by tests and as a debugging
// aid after graph surgery:
//
//   - every fanin literal refers to an older node (acyclicity),
//   - fanins of every AND are orderd (canonical form) and non-trivial,
//   - the structural hash table has its shape (see validateStrash) and
//     a lookup of every AND's fanins finds that AND,
//   - PI bookkeeping is consistent,
//   - PO literals are in range.
func (g *AIG) Validate() error {
	seenPI := make(map[int]bool, len(g.pis))
	for i, id := range g.pis {
		if int(id) <= 0 || int(id) >= len(g.nodes) {
			return fmt.Errorf("aig: PI %d references node %d out of range", i, id)
		}
		if !g.IsPI(int(id)) {
			return fmt.Errorf("aig: PI %d references non-PI node %d", i, id)
		}
		if seenPI[int(id)] {
			return fmt.Errorf("aig: node %d registered as PI twice", id)
		}
		seenPI[int(id)] = true
	}
	if err := g.validateStrash(); err != nil {
		return err
	}
	for id := 1; id < len(g.nodes); id++ {
		n := g.nodes[id]
		if n.f0 == litInvalid {
			if !seenPI[id] {
				return fmt.Errorf("aig: node %d looks like a PI but is not registered", id)
			}
			continue
		}
		if n.f0.ID() >= id || n.f1.ID() >= id {
			return fmt.Errorf("aig: AND %d has a forward fanin (%v, %v)", id, n.f0, n.f1)
		}
		if n.f0 > n.f1 {
			return fmt.Errorf("aig: AND %d fanins not canonically ordered (%v > %v)", id, n.f0, n.f1)
		}
		if n.f0 == n.f1 || n.f0 == n.f1.Not() {
			return fmt.Errorf("aig: AND %d is trivial (%v, %v)", id, n.f0, n.f1)
		}
		if n.f0.ID() == 0 {
			return fmt.Errorf("aig: AND %d has a constant fanin", id)
		}
		if _, hit := g.lookup(n.f0, n.f1); int(hit) != id {
			return fmt.Errorf("aig: AND %d missing from (or mismatched in) the strash table", id)
		}
	}
	for i, po := range g.pos {
		if po.ID() >= len(g.nodes) {
			return fmt.Errorf("aig: PO %d literal %v out of range", i, po)
		}
	}
	return nil
}
