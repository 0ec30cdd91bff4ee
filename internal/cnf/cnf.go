// Package cnf encodes AIG logic into CNF for the SAT backend via the
// Tseitin transformation. Encoding is lazy and cone-of-influence driven:
// only the logic feeding requested literals is translated, which keeps the
// clause database proportional to what each equivalence query touches.
package cnf

import (
	"simsweep/internal/aig"
	"simsweep/internal/sat"
)

// Encoder translates nodes of one AIG into variables of one SAT solver.
// The mapping persists across calls, so repeated queries share clauses.
type Encoder struct {
	g     *aig.AIG
	s     *sat.Solver
	varOf []int32 // node id -> SAT variable, -1 when not yet encoded
}

// NewEncoder creates an encoder of g into s.
func NewEncoder(g *aig.AIG, s *sat.Solver) *Encoder {
	varOf := make([]int32, g.NumNodes())
	for i := range varOf {
		varOf[i] = -1
	}
	return &Encoder{g: g, s: s, varOf: varOf}
}

// Solver returns the underlying solver.
func (e *Encoder) Solver() *sat.Solver { return e.s }

// VarOf returns the SAT variable already assigned to node id, or -1.
func (e *Encoder) VarOf(id int) int32 { return e.varOf[id] }

// LitOf encodes (if necessary) the cone of the AIG literal l and returns
// the corresponding SAT literal.
func (e *Encoder) LitOf(l aig.Lit) sat.Lit {
	v := e.encode(l.ID())
	return sat.MkLit(int(v), l.IsCompl())
}

// encode returns the SAT variable of node id, emitting Tseitin clauses for
// its cone on first use. Iterative DFS keeps deep cones off the Go stack.
func (e *Encoder) encode(root int) int32 {
	if e.varOf[root] >= 0 {
		return e.varOf[root]
	}
	stack := []int{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		if e.varOf[id] >= 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		if !e.g.IsAnd(id) {
			// PI or constant: a fresh variable; the constant is
			// pinned to false.
			v := int32(e.s.NewVar())
			e.varOf[id] = v
			if id == 0 {
				e.s.AddClause(sat.MkLit(int(v), true))
			}
			stack = stack[:len(stack)-1]
			continue
		}
		f0, f1 := e.g.Fanins(id)
		v0, v1 := e.varOf[f0.ID()], e.varOf[f1.ID()]
		if v0 < 0 || v1 < 0 {
			if v0 < 0 {
				stack = append(stack, f0.ID())
			}
			if v1 < 0 {
				stack = append(stack, f1.ID())
			}
			continue
		}
		v := int32(e.s.NewVar())
		e.varOf[id] = v
		a := sat.MkLit(int(v0), f0.IsCompl())
		b := sat.MkLit(int(v1), f1.IsCompl())
		c := sat.MkLit(int(v), false)
		// c ↔ a ∧ b
		e.s.AddClause(c.Neg(), a)
		e.s.AddClause(c.Neg(), b)
		e.s.AddClause(c, a.Neg(), b.Neg())
		stack = stack[:len(stack)-1]
	}
	return e.varOf[root]
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

// Model reads the value of AIG node id from the model after a Sat answer;
// ok is false when the node was never encoded (its value is unconstrained).
func (e *Encoder) Model(id int) (value, ok bool) {
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
