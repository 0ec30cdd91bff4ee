// Package aig implements And-Inverter Graphs, the circuit representation of
// the CEC engine and all of its substrates.
//
// An AIG is a DAG whose internal nodes are two-input AND gates and whose
// edges may be complemented. Node 0 is the constant-false node; primary
// inputs and AND nodes follow in creation order, so node ids form a
// topological order by construction. Literals follow the AIGER convention:
// a literal is 2·id + complement.
package aig

import (
	"fmt"
	"sort"
)

// Lit is a signal: a node id with an optional complement attribute,
// encoded as 2·id + complement (the AIGER convention).
type Lit uint32

// Constant literals. Node 0 is the constant-false node.
const (
	False Lit = 0
	True  Lit = 1
)

// litInvalid marks the fanins of PI nodes inside the node array.
const litInvalid Lit = ^Lit(0)

// MakeLit builds the literal of node id with the given complement.
func MakeLit(id int, compl bool) Lit {
	l := Lit(id) << 1
	if compl {
		l |= 1
	}
	return l
}

// ID returns the node id of the literal.
func (l Lit) ID() int { return int(l >> 1) }

// IsCompl reports whether the literal is complemented.
func (l Lit) IsCompl() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// Regular returns the positive-phase literal of the same node.
func (l Lit) Regular() Lit { return l &^ 1 }

// String renders the literal as, e.g., "7" or "!7".
func (l Lit) String() string {
	if l.IsCompl() {
		return fmt.Sprintf("!%d", l.ID())
	}
	return fmt.Sprintf("%d", l.ID())
}

type node struct {
	f0, f1 Lit
}

// AIG is an And-Inverter Graph. The zero value is not usable; construct
// with New. AIGs are append-only: nodes are never removed, and reductions
// are expressed by rebuilding into a fresh AIG (see the miter package).
// An AIG is not safe for concurrent mutation, but all read-only accessors
// may be used from multiple goroutines once construction is done.
type AIG struct {
	Name string

	nodes []node
	pis   []int32
	pos   []Lit

	piNames []string
	poNames []string

	strash map[uint64]int32
}

// New returns an empty AIG containing only the constant-false node.
func New() *AIG { return NewSized(0) }

// NewSized is New with room for about nodes nodes: the node array and the
// structural hash table are allocated at that size up front, so building a
// graph whose size is known in advance (a miter, a parsed file) does not
// rehash the table as it grows. The hint only reserves capacity; the graph
// grows past it as usual. Callers reading untrusted sizes must bound the
// hint themselves.
func NewSized(nodes int) *AIG {
	if nodes < 1 {
		nodes = 1
	}
	g := &AIG{
		nodes:  make([]node, 1, nodes),
		strash: make(map[uint64]int32, nodes),
	}
	g.nodes[0] = node{litInvalid, litInvalid}
	return g
}

// NumNodes returns the total node count including the constant and PIs.
func (g *AIG) NumNodes() int { return len(g.nodes) }

// NumPIs returns the number of primary inputs.
func (g *AIG) NumPIs() int { return len(g.pis) }

// NumPOs returns the number of primary outputs.
func (g *AIG) NumPOs() int { return len(g.pos) }

// NumAnds returns the number of AND nodes.
func (g *AIG) NumAnds() int { return len(g.nodes) - 1 - len(g.pis) }

// PI returns the literal of the i-th primary input.
func (g *AIG) PI(i int) Lit { return MakeLit(int(g.pis[i]), false) }

// PIID returns the node id of the i-th primary input.
func (g *AIG) PIID(i int) int { return int(g.pis[i]) }

// PO returns the literal driving the i-th primary output.
func (g *AIG) PO(i int) Lit { return g.pos[i] }

// SetPO redirects the i-th primary output to drive l.
func (g *AIG) SetPO(i int, l Lit) { g.pos[i] = l }

// PIName and POName return optional names ("" when unset).
func (g *AIG) PIName(i int) string {
	if i < len(g.piNames) {
		return g.piNames[i]
	}
	return ""
}

// POName returns the optional name of the i-th output.
func (g *AIG) POName(i int) string {
	if i < len(g.poNames) {
		return g.poNames[i]
	}
	return ""
}

// AddPI appends a primary input and returns its positive literal.
func (g *AIG) AddPI() Lit { return g.AddPINamed("") }

// AddPINamed appends a named primary input.
func (g *AIG) AddPINamed(name string) Lit {
	id := len(g.nodes)
	g.nodes = append(g.nodes, node{litInvalid, litInvalid})
	g.pis = append(g.pis, int32(id))
	if name != "" || len(g.piNames) > 0 {
		for len(g.piNames) < len(g.pis)-1 {
			g.piNames = append(g.piNames, "")
		}
		g.piNames = append(g.piNames, name)
	}
	return MakeLit(id, false)
}

// AddPO appends a primary output driven by l and returns its index.
func (g *AIG) AddPO(l Lit) int { return g.AddPONamed(l, "") }

// AddPONamed appends a named primary output.
func (g *AIG) AddPONamed(l Lit, name string) int {
	g.checkLit(l)
	g.pos = append(g.pos, l)
	if name != "" || len(g.poNames) > 0 {
		for len(g.poNames) < len(g.pos)-1 {
			g.poNames = append(g.poNames, "")
		}
		g.poNames = append(g.poNames, name)
	}
	return len(g.pos) - 1
}

// IsPI reports whether node id is a primary input.
func (g *AIG) IsPI(id int) bool {
	return id > 0 && g.nodes[id].f0 == litInvalid
}

// IsAnd reports whether node id is an AND gate.
func (g *AIG) IsAnd(id int) bool {
	return id > 0 && g.nodes[id].f0 != litInvalid
}

// IsConst reports whether node id is the constant node.
func (g *AIG) IsConst(id int) bool { return id == 0 }

// Fanins returns the two fanin literals of AND node id.
func (g *AIG) Fanins(id int) (Lit, Lit) {
	n := g.nodes[id]
	if n.f0 == litInvalid {
		panic(fmt.Sprintf("aig: node %d is not an AND", id))
	}
	return n.f0, n.f1
}

func (g *AIG) checkLit(l Lit) {
	if l == litInvalid || l.ID() >= len(g.nodes) {
		panic(fmt.Sprintf("aig: literal %v out of range", l))
	}
}

func strashKey(f0, f1 Lit) uint64 { return uint64(f0)<<32 | uint64(f1) }

// And returns a literal for the conjunction of a and b, applying constant
// folding, trivial-rule simplification and structural hashing. At most one
// new node is appended.
func (g *AIG) And(a, b Lit) Lit {
	g.checkLit(a)
	g.checkLit(b)
	// Trivial rules.
	switch {
	case a == False || b == False || a == b.Not():
		return False
	case a == True:
		return b
	case b == True:
		return a
	case a == b:
		return a
	}
	if a > b {
		a, b = b, a
	}
	key := strashKey(a, b)
	if id, ok := g.strash[key]; ok {
		return MakeLit(int(id), false)
	}
	id := len(g.nodes)
	g.nodes = append(g.nodes, node{a, b})
	g.strash[key] = int32(id)
	return MakeLit(id, false)
}

// Or returns a ∨ b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a ⊕ b, built from two ANDs.
func (g *AIG) Xor(a, b Lit) Lit {
	// a⊕b = ¬(¬(a∧¬b) ∧ ¬(¬a∧b))
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Xnor returns ¬(a ⊕ b).
func (g *AIG) Xnor(a, b Lit) Lit { return g.Xor(a, b).Not() }

// Mux returns s ? t : e.
func (g *AIG) Mux(s, t, e Lit) Lit {
	return g.Or(g.And(s, t), g.And(s.Not(), e))
}

// Implies returns a → b.
func (g *AIG) Implies(a, b Lit) Lit { return g.Or(a.Not(), b) }

// Checkpoint records the current node count for a later Rollback. Only AND
// nodes may be appended between a Checkpoint and its Rollback.
func (g *AIG) Checkpoint() int { return len(g.nodes) }

// Rollback removes every node appended since the checkpoint, restoring the
// structural hash table. It panics if a PI was added in between.
func (g *AIG) Rollback(cp int) {
	for id := len(g.nodes) - 1; id >= cp; id-- {
		n := g.nodes[id]
		if n.f0 == litInvalid {
			panic("aig: cannot roll back over a primary input")
		}
		delete(g.strash, strashKey(n.f0, n.f1))
	}
	g.nodes = g.nodes[:cp]
}

// Levels returns the level of every node: PIs and the constant have level
// 0; an AND node's level is 1 + max(fanin levels).
func (g *AIG) Levels() []int32 {
	lv := make([]int32, len(g.nodes))
	for id := 1; id < len(g.nodes); id++ {
		n := g.nodes[id]
		if n.f0 == litInvalid {
			continue
		}
		l0 := lv[n.f0.ID()]
		l1 := lv[n.f1.ID()]
		if l1 > l0 {
			l0 = l1
		}
		lv[id] = l0 + 1
	}
	return lv
}

// Level returns the level of the network (max over PO drivers).
func (g *AIG) Level() int {
	lv := g.Levels()
	max := int32(0)
	for _, po := range g.pos {
		if l := lv[po.ID()]; l > max {
			max = l
		}
	}
	return int(max)
}

// FanoutCounts returns, for every node, the number of fanout references
// (AND fanins plus PO drivers).
func (g *AIG) FanoutCounts() []int32 {
	fo := make([]int32, len(g.nodes))
	for id := 1; id < len(g.nodes); id++ {
		n := g.nodes[id]
		if n.f0 == litInvalid {
			continue
		}
		fo[n.f0.ID()]++
		fo[n.f1.ID()]++
	}
	for _, po := range g.pos {
		fo[po.ID()]++
	}
	return fo
}

// Eval simulates the AIG over single-bit input values (indexed like PIs)
// and returns the PO values. It is intended for tests and examples, not for
// the engine's hot paths.
func (g *AIG) Eval(inputs []bool) []bool {
	if len(inputs) != len(g.pis) {
		panic(fmt.Sprintf("aig: Eval got %d inputs, want %d", len(inputs), len(g.pis)))
	}
	val := make([]bool, len(g.nodes))
	for i, id := range g.pis {
		val[id] = inputs[i]
	}
	for id := 1; id < len(g.nodes); id++ {
		n := g.nodes[id]
		if n.f0 == litInvalid {
			continue
		}
		v0 := val[n.f0.ID()] != n.f0.IsCompl()
		v1 := val[n.f1.ID()] != n.f1.IsCompl()
		val[id] = v0 && v1
	}
	out := make([]bool, len(g.pos))
	for i, po := range g.pos {
		out[i] = val[po.ID()] != po.IsCompl()
	}
	return out
}

// LitValue returns the value of literal l given node values val.
func LitValue(val []bool, l Lit) bool { return val[l.ID()] != l.IsCompl() }

// ConeNodes returns, in increasing-id (topological) order, the ids of all
// AND nodes in the cones of roots, stopping the downward traversal at nodes
// in stop (and at PIs/constant). Nodes in stop are not included.
func (g *AIG) ConeNodes(roots []int, stop map[int]bool) []int32 {
	seen := make(map[int]bool)
	var cone []int32
	var stack []int
	for _, r := range roots {
		if !seen[r] && !stop[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !g.IsAnd(id) {
			continue
		}
		cone = append(cone, int32(id))
		f0, f1 := g.Fanins(id)
		for _, f := range [2]Lit{f0, f1} {
			fid := f.ID()
			if !seen[fid] && !stop[fid] {
				seen[fid] = true
				stack = append(stack, fid)
			}
		}
	}
	sort.Slice(cone, func(i, j int) bool { return cone[i] < cone[j] })
	return cone
}

// Copy returns a structurally identical AIG (fresh strash table included).
func (g *AIG) Copy() *AIG {
	out := &AIG{
		Name:    g.Name,
		nodes:   append([]node(nil), g.nodes...),
		pis:     append([]int32(nil), g.pis...),
		pos:     append([]Lit(nil), g.pos...),
		piNames: append([]string(nil), g.piNames...),
		poNames: append([]string(nil), g.poNames...),
		strash:  make(map[uint64]int32, len(g.strash)),
	}
	for k, v := range g.strash {
		out.strash[k] = v
	}
	return out
}

// Append copies other into g with fresh PIs and POs appended after g's
// existing ones, returning the mapping from other's node ids to literals in
// g. This is the building block of the "double" enlargement.
func (g *AIG) Append(other *AIG) []Lit {
	m := make([]Lit, other.NumNodes())
	m[0] = False
	for id := 1; id < other.NumNodes(); id++ {
		n := other.nodes[id]
		if n.f0 == litInvalid {
			m[id] = g.AddPI()
			continue
		}
		f0 := m[n.f0.ID()].NotIf(n.f0.IsCompl())
		f1 := m[n.f1.ID()].NotIf(n.f1.IsCompl())
		m[id] = g.And(f0, f1)
	}
	for _, po := range other.pos {
		g.AddPO(m[po.ID()].NotIf(po.IsCompl()))
	}
	return m
}

// Double returns an AIG containing two disjoint copies of g, doubling PIs,
// POs and AND nodes — the ABC "double" enlargement used by the paper's
// benchmarks.
func Double(g *AIG) *AIG {
	out := New()
	out.Name = g.Name
	out.Append(g)
	out.Append(g)
	return out
}

// DoubleN applies Double n times.
func DoubleN(g *AIG, n int) *AIG {
	for i := 0; i < n; i++ {
		g = Double(g)
	}
	return g
}

// Stats is a human-readable one-line summary.
func (g *AIG) Stats() string {
	return fmt.Sprintf("%s: pi=%d po=%d and=%d lev=%d", name(g), g.NumPIs(), g.NumPOs(), g.NumAnds(), g.Level())
}

func name(g *AIG) string {
	if g.Name != "" {
		return g.Name
	}
	return "aig"
}
