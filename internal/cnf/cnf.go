// Package cnf encodes AIG logic into CNF for the SAT backend, node by node
// as ABC's &cec does (Cec_CnfNodeAddToSolver; Eén, Mishchenko and
// Sörensson, "Applying Logic Synthesis for Speeding Up SAT", SAT 2007):
//
//   - a MUX or XOR, an AND of two complemented ANDs that share one input
//     in opposite polarities, is one variable with the four MUX clauses
//     (plus two redundant ones when its data inputs are different nodes);
//   - any other AND is one variable over its supergate: the leaves reached
//     through non-complemented edges into ANDs that have one fanout, no
//     variable yet and no MUX shape. A k-leaf supergate takes k binary
//     clauses and one (k+1)-literal clause.
//
// A node folded into a supergate gets no variable. Its one fanout is in
// that supergate, so no other clause can refer to it, and if it is asked
// for later it is encoded on its own: it computes the same function.
// Encoding is lazy and cone-of-influence driven, so only the logic feeding
// requested literals is translated, and clauses persist on one solver
// across queries. The graph may grow between queries (a FRAIG under
// construction): a node added later counts as a fanout of its fanins from
// then on, so a node folded into a supergate while it had one fanout gets
// a definition of its own when a new node reads it. MiterToFormula keeps
// the plain one-variable-per-AND Tseitin export.
package cnf

import (
	"simsweep/internal/aig"
	"simsweep/internal/sat"
)

// Encoder translates nodes of one AIG into variables of one SAT solver.
// The mapping persists across calls, so repeated queries share clauses.
type Encoder struct {
	g      *aig.AIG
	s      *sat.Solver
	varOf  []int32   // node id -> SAT variable, -1 when not encoded or folded
	fanout []int32   // node id -> fanout references, aig.FanoutCounts
	todo   []int32   // nodes with a variable whose clauses are not yet added
	leaves []aig.Lit // the supergate being collected
	walk   []aig.Lit // collection stack
	seen   []uint32  // AIG literal -> last epoch that made it a leaf
	epoch  uint32
	clause []sat.Lit // the supergate's long clause
	cone   []uint32  // node id -> last epoch of Cone that reached it
	coneEp uint32
}

// NewEncoder creates an encoder of g into s.
func NewEncoder(g *aig.AIG, s *sat.Solver) *Encoder {
	varOf := make([]int32, g.NumNodes())
	for i := range varOf {
		varOf[i] = -1
	}
	return &Encoder{g: g, s: s, varOf: varOf, fanout: g.FanoutCounts()}
}

// grow extends the per-node tables to the nodes added to the graph since
// the last query, counting each new AND as a fanout of its fanins.
func (e *Encoder) grow() {
	n := e.g.NumNodes()
	for id := len(e.varOf); id < n; id++ {
		e.varOf = append(e.varOf, -1)
		e.fanout = append(e.fanout, 0)
		if e.g.IsAnd(id) {
			f0, f1 := e.g.Fanins(id)
			e.fanout[f0.ID()]++
			e.fanout[f1.ID()]++
		}
	}
	if e.seen != nil && len(e.seen) < 2*n {
		e.seen = append(e.seen, make([]uint32, 2*n-len(e.seen))...)
	}
}

// Solver returns the underlying solver.
func (e *Encoder) Solver() *sat.Solver { return e.s }

// VarOf returns the SAT variable already assigned to node id, or -1 when
// the node is not encoded: outside every cone asked so far, or folded into
// a supergate.
func (e *Encoder) VarOf(id int) int32 { return e.varOf[id] }

// LitOf encodes (if necessary) the cone of the AIG literal l and returns
// the corresponding SAT literal.
func (e *Encoder) LitOf(l aig.Lit) sat.Lit {
	e.grow()
	v := e.encode(l.ID())
	return sat.MkLit(int(v), l.IsCompl())
}

// encode returns the SAT variable of node id, adding the clauses of its
// cone on first use. The cone is walked breadth-first through a queue of
// nodes that have a variable and no clauses yet, so deep cones stay off
// the Go stack.
func (e *Encoder) encode(root int) int32 {
	if v := e.varOf[root]; v >= 0 {
		return v
	}
	v := e.newVar(root)
	for i := 0; i < len(e.todo); i++ {
		e.define(int(e.todo[i]))
	}
	e.todo = e.todo[:0]
	return v
}

// newVar gives node id a variable. The constant is pinned to false; an
// AND is queued for its clauses.
func (e *Encoder) newVar(id int) int32 {
	v := int32(e.s.NewVar())
	e.varOf[id] = v
	switch {
	case id == 0:
		e.s.AddClause(sat.MkLit(int(v), true))
	case e.g.IsAnd(id):
		e.todo = append(e.todo, int32(id))
	}
	return v
}

// lit returns the SAT literal of the AIG literal l, giving its node a
// variable if it has none.
func (e *Encoder) lit(l aig.Lit) sat.Lit {
	v := e.varOf[l.ID()]
	if v < 0 {
		v = e.newVar(l.ID())
	}
	return sat.MkLit(int(v), l.IsCompl())
}

// define adds the clauses of AND node id, which has a variable.
func (e *Encoder) define(id int) {
	f := sat.MkLit(int(e.varOf[id]), false)
	if c, t, el, ok := e.mux(id); ok {
		e.defineMux(f.Neg(), e.lit(c), e.lit(t), e.lit(el))
		return
	}
	e.collect(id)
	cl := append(e.clause[:0], f)
	for _, x := range e.leaves {
		lx := e.lit(x)
		e.s.AddClause(f.Neg(), lx)
		cl = append(cl, lx.Neg())
	}
	e.s.AddClause(cl...)
	e.clause = cl
}

// mux reports whether AND node id is ¬(c ∧ t) ∧ ¬(¬c ∧ el), that is
// ¬ITE(c, t, el); an XOR is the case t = ¬el.
func (e *Encoder) mux(id int) (c, t, el aig.Lit, ok bool) {
	f0, f1 := e.g.Fanins(id)
	if !f0.IsCompl() || !f1.IsCompl() || !e.g.IsAnd(f0.ID()) || !e.g.IsAnd(f1.ID()) {
		return 0, 0, 0, false
	}
	a0, a1 := e.g.Fanins(f0.ID())
	b0, b1 := e.g.Fanins(f1.ID())
	switch {
	case a0 == b0.Not():
		return a0, a1, b1, true
	case a0 == b1.Not():
		return a0, a1, b0, true
	case a1 == b0.Not():
		return a1, a0, b1, true
	case a1 == b1.Not():
		return a1, a0, b0, true
	}
	return 0, 0, 0, false
}

// defineMux adds the clauses of f ↔ ITE(c, t, el): four that define it,
// and t ∧ el → f and ¬t ∧ ¬el → ¬f, which only help propagation and are
// left out when t and el share a variable (an XOR).
func (e *Encoder) defineMux(f, c, t, el sat.Lit) {
	e.s.AddClause(c.Neg(), t.Neg(), f)
	e.s.AddClause(c.Neg(), t, f.Neg())
	e.s.AddClause(c, el.Neg(), f)
	e.s.AddClause(c, el, f.Neg())
	if t.Var() == el.Var() {
		return
	}
	e.s.AddClause(t.Neg(), el.Neg(), f)
	e.s.AddClause(t, el, f.Neg())
}

// collect gathers the supergate of AND node id into e.leaves, each leaf
// literal once. It descends through a non-complemented edge into an AND
// that has one fanout, no variable and no MUX shape; any other edge is a
// leaf.
func (e *Encoder) collect(id int) {
	if e.seen == nil {
		e.seen = make([]uint32, 2*e.g.NumNodes())
	}
	e.epoch++
	e.leaves = e.leaves[:0]
	f0, f1 := e.g.Fanins(id)
	walk := append(e.walk[:0], f1, f0)
	for len(walk) > 0 {
		l := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		n := l.ID()
		if !l.IsCompl() && e.g.IsAnd(n) && e.fanout[n] == 1 && e.varOf[n] < 0 {
			if _, _, _, mux := e.mux(n); !mux {
				g0, g1 := e.g.Fanins(n)
				walk = append(walk, g1, g0)
				continue
			}
		}
		if e.seen[l] != e.epoch {
			e.seen[l] = e.epoch
			e.leaves = append(e.leaves, l)
		}
	}
	e.walk = walk
}

// XorAssumption creates a fresh variable t constrained to t ↔ (a ⊕ b) over
// the AIG literals a and b, and returns the assumption literal asserting
// the XOR — the standard way to pose "are a and b different?" as an
// incremental query.
func (e *Encoder) XorAssumption(a, b aig.Lit) sat.Lit {
	la := e.LitOf(a)
	lb := e.LitOf(b)
	t := sat.MkLit(e.s.NewVar(), false)
	// t ↔ (la ⊕ lb)
	e.s.AddClause(t.Neg(), la, lb)
	e.s.AddClause(t.Neg(), la.Neg(), lb.Neg())
	e.s.AddClause(t, la.Neg(), lb)
	e.s.AddClause(t, la, lb.Neg())
	return t
}

// Cone appends to vars the SAT variables of the nodes in the cone of the
// encoded roots, and to pis the PI node ids of that cone: vars is the
// decision scope of a query over the roots (sat.Solver.SolveIn), since a
// node's clauses mention only nodes of its own cone.
func (e *Encoder) Cone(vars []int, pis []int32, roots ...aig.Lit) ([]int, []int32) {
	if n := e.g.NumNodes(); len(e.cone) < n {
		e.cone = append(e.cone, make([]uint32, n-len(e.cone))...)
	}
	e.coneEp++
	stack := append(e.walk[:0], roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1].ID()
		stack = stack[:len(stack)-1]
		if e.cone[id] == e.coneEp {
			continue
		}
		e.cone[id] = e.coneEp
		if v := e.varOf[id]; v >= 0 {
			vars = append(vars, int(v))
		}
		switch {
		case e.g.IsAnd(id):
			f0, f1 := e.g.Fanins(id)
			stack = append(stack, f0, f1)
		case e.g.IsPI(id):
			pis = append(pis, int32(id))
		}
	}
	e.walk = stack
	return vars, pis
}

// Model reads the value of AIG node id from the model after a Sat answer;
// ok is false when the node has no variable (never encoded, or folded into
// a supergate), so the model does not hold its value.
func (e *Encoder) Model(id int) (value, ok bool) {
	if id >= len(e.varOf) {
		return false, false
	}
	v := e.varOf[id]
	if v < 0 {
		return false, false
	}
	return e.s.Value(int(v)), true
}

// ModelInputs reads the PI assignment (by PI index) of the model after a
// Sat answer. PIs the encoder never reached are unconstrained and read
// false.
func (e *Encoder) ModelInputs() []bool {
	in := make([]bool, e.g.NumPIs())
	for i := range in {
		in[i], _ = e.Model(e.g.PIID(i))
	}
	return in
}
