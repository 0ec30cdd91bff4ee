package sat

import (
	"math/rand"
	"testing"
)

// andCircuit is a random AND circuit in CNF on two solvers at once: s, the
// solver under test, and twin, which gets the same clauses and answers
// every query unconfined. Inputs and gates are variables; a gate is defined
// as the AND of two literals of older variables by its three Tseitin
// clauses, the only kind of clause the circuit has, so any cone of it is a
// scope that SolveIn may confine decisions to.
type andCircuit struct {
	s, twin *Solver
	fanins  map[int][2]Lit
	clauses [][]Lit
}

func (c *andCircuit) newVar() int {
	v := c.s.NewVar()
	c.twin.NewVar()
	return v
}

func (c *andCircuit) add(lits ...Lit) {
	c.clauses = append(c.clauses, lits)
	c.s.AddClause(lits...)
	c.twin.AddClause(lits...)
}

// and returns a gate variable defined as a ∧ b.
func (c *andCircuit) and(a, b Lit) Lit {
	g := MkLit(c.newVar(), false)
	c.add(g.Neg(), a)
	c.add(g.Neg(), b)
	c.add(g, a.Neg(), b.Neg())
	c.fanins[g.Var()] = [2]Lit{a, b}
	return g
}

// xor returns a variable defined as a ⊕ b.
func (c *andCircuit) xor(a, b Lit) Lit {
	t := MkLit(c.newVar(), false)
	c.add(t.Neg(), a, b)
	c.add(t.Neg(), a.Neg(), b.Neg())
	c.add(t, a.Neg(), b)
	c.add(t, a, b.Neg())
	c.fanins[t.Var()] = [2]Lit{a, b}
	return t
}

// cone returns the variables of the cones of the roots.
func (c *andCircuit) cone(roots ...Lit) []int {
	seen := make(map[int]bool)
	var out []int
	stack := append([]Lit(nil), roots...)
	for len(stack) > 0 {
		v := stack[len(stack)-1].Var()
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
		if f, ok := c.fanins[v]; ok {
			stack = append(stack, f[0], f[1])
		}
	}
	return out
}

// satisfiedWithin reports whether s's model satisfies every clause whose
// variables all lie in scope (every clause when scope is nil).
func (c *andCircuit) satisfiedWithin(scope []int) bool {
	in := make(map[int]bool)
	for _, v := range scope {
		in[v] = true
	}
	value := func(l Lit) bool { return c.s.Value(l.Var()) != l.Sign() }
next:
	for _, cl := range c.clauses {
		for _, l := range cl {
			if scope != nil && !in[l.Var()] {
				continue next
			}
		}
		for _, l := range cl {
			if value(l) {
				continue next
			}
		}
		return false
	}
	return true
}

// TestSolveInAgreesWithSolve asks random queries over the cones of a
// growing random AND circuit, each confined to its cone on one solver and
// unconfined on a twin: a gate in either polarity (Sat or Unsat when the
// gate is constant), the XOR of two gates that compute one function with
// different association (Unsat), and a conjunction of random parity
// constraints over the inputs (either, after conflicts). The confined answer must be the
// twin's, a confined model must satisfy every clause over the cone, and an
// unconfined call on the same solver after the confined ones, under random
// assumptions over the whole circuit, must still agree with the twin and
// give a model of every clause.
func TestSolveInAgreesWithSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := &andCircuit{s: New(), twin: New(), fanins: make(map[int][2]Lit)}
	var lits, inputs []Lit
	for i := 0; i < 24; i++ {
		inputs = append(inputs, MkLit(c.newVar(), false))
	}
	lits = append(lits, inputs...)
	pick := func() Lit { return lits[rng.Intn(len(lits))].Neg() ^ Lit(rng.Intn(2)) }
	counts := map[Status]int{}
	for step := 0; step < 600; step++ {
		var q Lit
		var scope []int
		switch step % 3 {
		case 0:
			x, y, z := pick(), pick(), pick()
			g1, g2 := c.and(x, c.and(y, z)), c.and(c.and(x, y), z)
			lits = append(lits, g1, g2)
			q = c.xor(g1, g2)
			scope = c.cone(q)
		case 1:
			// A conjunction of random parity constraints over the
			// inputs, which takes the search through conflicts and
			// backtracks before it answers.
			g := c.xor(inputs[rng.Intn(len(inputs))], inputs[rng.Intn(len(inputs))])
			for k := 0; k < 14; k++ {
				x := c.xor(c.xor(inputs[rng.Intn(len(inputs))], inputs[rng.Intn(len(inputs))]), inputs[rng.Intn(len(inputs))])
				g = c.and(g, x^Lit(rng.Intn(2)))
			}
			lits = append(lits, g)
			q = g
			scope = c.cone(g)
		default:
			g := c.and(pick(), pick())
			lits = append(lits, g)
			q = g ^ Lit(rng.Intn(2))
			scope = c.cone(g)
		}
		got, want := c.s.SolveIn(scope, q), c.twin.Solve(q)
		counts[got]++
		if got != want {
			t.Fatalf("step %d: confined %v, unconfined %v", step, got, want)
		}
		if got == Sat && (!c.satisfiedWithin(scope) || c.s.Value(q.Var()) == q.Sign()) {
			t.Fatalf("step %d: the confined model violates a clause of the cone", step)
		}
		for _, v := range scope {
			if got == Sat && c.s.vals[2*v] == lUndef {
				t.Fatalf("step %d: the confined model leaves variable %d of the cone unassigned", step, v)
			}
		}
		if step%10 == 9 {
			var as []Lit
			for k := 0; k < 3; k++ {
				as = append(as, pick())
			}
			got, want := c.s.Solve(as...), c.twin.Solve(as...)
			if got != want {
				t.Fatalf("step %d: unconfined call after confined ones %v, twin %v", step, got, want)
			}
			if got == Sat && !c.satisfiedWithin(nil) {
				t.Fatalf("step %d: the unconfined model after confined calls violates a clause", step)
			}
		}
	}
	if counts[Sat] == 0 || counts[Unsat] == 0 {
		t.Fatalf("answers %v: the queries do not cover both verdicts", counts)
	}
}
