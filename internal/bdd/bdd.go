// Package bdd implements reduced ordered binary decision diagrams with an
// ite-based operation core, a unique table for canonicity and a computed
// table for memoisation. BDDs were the dominant CEC technology before SAT
// sweeping (Bryant 1986; Kuehlmann & Krohm 1997); here they serve as one
// engine of the portfolio checker and as an independent oracle in tests.
//
// The manager enforces a node limit: building past it aborts the current
// operation with ErrNodeLimit, which CEC callers report as "undecided" —
// the classic BDD memory-blowup failure mode, made deterministic. A closed
// stop channel (CheckMiter's stop) aborts it the same way with ErrStopped.
package bdd

import (
	"errors"
	"fmt"

	"simsweep/internal/aig"
)

// ErrNodeLimit is returned when an operation would exceed the node budget.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

// ErrStopped is returned when the manager's stop channel closed during an
// operation.
var ErrStopped = errors.New("bdd: stopped")

// Ref is a reference to a BDD node. The terminals are False (0) and True (1).
type Ref int32

// Terminal references.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level     int32 // variable index; terminals use a sentinel max level
	low, high Ref
}

const terminalLevel = int32(1<<30 - 1)

// Manager owns the node store of one BDD space over a fixed variable order
// (variable i is decision level i).
type Manager struct {
	numVars int
	limit   int
	nodes   []node
	unique  map[uint64]Ref
	cache   map[[3]Ref]Ref
	// stop, when non-nil, is polled once per 256 node allocations (the
	// SAT solver polls once per 32 conflicts); once it is closed the
	// running operation aborts with ErrStopped.
	stop <-chan struct{}
}

// New creates a manager over numVars variables with a node limit
// (limit <= 0 selects 1<<22 nodes).
func New(numVars, limit int) *Manager {
	if limit <= 0 {
		limit = 1 << 22
	}
	m := &Manager{
		numVars: numVars,
		limit:   limit,
		nodes: []node{
			{level: terminalLevel}, // False
			{level: terminalLevel}, // True
		},
		unique: make(map[uint64]Ref),
		cache:  make(map[[3]Ref]Ref),
	}
	return m
}

// NumNodes returns the number of live nodes including terminals.
func (m *Manager) NumNodes() int { return len(m.nodes) }

// Var returns the BDD of variable i.
func (m *Manager) Var(i int) (Ref, error) {
	if i < 0 || i >= m.numVars {
		return 0, fmt.Errorf("bdd: variable %d out of range", i)
	}
	return m.run(func() Ref { return m.mk(int32(i), False, True) })
}

// run executes an operation, converting the abort panics of mk into
// ErrNodeLimit or ErrStopped.
func (m *Manager) run(f func() Ref) (r Ref, err error) {
	defer func() {
		if p := recover(); p != nil {
			if p == ErrNodeLimit || p == ErrStopped {
				err = p.(error)
				return
			}
			panic(p)
		}
	}()
	return f(), nil
}

func (m *Manager) mk(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	key := (uint64(level)*0x9E3779B97F4A7C15 ^ uint64(uint32(low))) * 0xFF51AFD7ED558CCD
	key ^= uint64(uint32(high)) * 0xC4CEB9FE1A85EC53
	// Hits are verified against the node fields; collisions probe ahead.
	for {
		r, ok := m.unique[key]
		if !ok {
			break
		}
		n := m.nodes[r]
		if n.level == level && n.low == low && n.high == high {
			return r
		}
		key = key*0x9E3779B97F4A7C15 + 1
	}
	if len(m.nodes) >= m.limit {
		panic(ErrNodeLimit)
	}
	if m.stop != nil && len(m.nodes)&0xFF == 0 {
		select {
		case <-m.stop:
			panic(ErrStopped)
		default:
		}
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, low: low, high: high})
	m.unique[key] = r
	return r
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

func (m *Manager) cofactor(r Ref, level int32, high bool) Ref {
	n := m.nodes[r]
	if n.level != level {
		return r
	}
	if high {
		return n.high
	}
	return n.low
}

// ite computes if-then-else(f, g, h) recursively.
func (m *Manager) ite(f, g, h Ref) Ref {
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := [3]Ref{f, g, h}
	if r, ok := m.cache[key]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	lo := m.ite(m.cofactor(f, top, false), m.cofactor(g, top, false), m.cofactor(h, top, false))
	hi := m.ite(m.cofactor(f, top, true), m.cofactor(g, top, true), m.cofactor(h, top, true))
	r := m.mk(top, lo, hi)
	m.cache[key] = r
	return r
}

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) (Ref, error) { return m.run(func() Ref { return m.ite(f, g, False) }) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) (Ref, error) { return m.run(func() Ref { return m.ite(f, True, g) }) }

// Not returns ¬f.
func (m *Manager) Not(f Ref) (Ref, error) { return m.run(func() Ref { return m.ite(f, False, True) }) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) (Ref, error) {
	return m.run(func() Ref {
		ng := m.ite(g, False, True)
		return m.ite(f, ng, g)
	})
}

// AnySat returns a satisfying assignment of f over the manager's variables
// (false for variables f does not depend on). ok is false when f is
// unsatisfiable.
func (m *Manager) AnySat(f Ref) (assign []bool, ok bool) {
	if f == False {
		return nil, false
	}
	assign = make([]bool, m.numVars)
	for f != True {
		n := m.nodes[f]
		if n.low != False {
			f = n.low
		} else {
			assign[n.level] = true
			f = n.high
		}
	}
	return assign, true
}

// Eval evaluates f under the assignment (indexed by variable).
func (m *Manager) Eval(f Ref, assign []bool) bool {
	for f != True && f != False {
		n := m.nodes[f]
		if assign[n.level] {
			f = n.high
		} else {
			f = n.low
		}
	}
	return f == True
}

// BuildAIG constructs the BDDs of the given AIG literals (typically the
// POs of a miter) under the variable order "PI position". It memoises per
// AIG node, so shared logic is translated once.
func (m *Manager) BuildAIG(g *aig.AIG, roots []aig.Lit) ([]Ref, error) {
	memo := make([]Ref, g.NumNodes())
	done := make([]bool, g.NumNodes())
	memo[0] = False
	done[0] = true
	for i := 0; i < g.NumPIs(); i++ {
		v, err := m.Var(i)
		if err != nil {
			return nil, err
		}
		memo[g.PIID(i)] = v
		done[g.PIID(i)] = true
	}
	build := func(root int) (Ref, error) {
		stack := []int{root}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			if done[id] {
				stack = stack[:len(stack)-1]
				continue
			}
			f0, f1 := g.Fanins(id)
			if !done[f0.ID()] || !done[f1.ID()] {
				if !done[f0.ID()] {
					stack = append(stack, f0.ID())
				}
				if !done[f1.ID()] {
					stack = append(stack, f1.ID())
				}
				continue
			}
			r0, r1 := memo[f0.ID()], memo[f1.ID()]
			var err error
			if f0.IsCompl() {
				if r0, err = m.Not(r0); err != nil {
					return 0, err
				}
			}
			if f1.IsCompl() {
				if r1, err = m.Not(r1); err != nil {
					return 0, err
				}
			}
			r, err := m.And(r0, r1)
			if err != nil {
				return 0, err
			}
			memo[id] = r
			done[id] = true
			stack = stack[:len(stack)-1]
		}
		return memo[root], nil
	}
	out := make([]Ref, len(roots))
	for i, root := range roots {
		r, err := build(root.ID())
		if err != nil {
			return nil, err
		}
		if root.IsCompl() {
			if r, err = m.Not(r); err != nil {
				return nil, err
			}
		}
		out[i] = r
	}
	return out, nil
}

// CheckMiter decides a miter by building the BDD of every PO.
// It returns equal=true when all POs are constant false; when some PO is
// satisfiable it returns equal=false and a PI counter-example. ErrNodeLimit
// means the decision exceeded the node budget and ErrStopped that stop
// closed first (both undecided). A nil stop never cancels.
func CheckMiter(g *aig.AIG, limit int, stop <-chan struct{}) (equal bool, cex []bool, err error) {
	m := New(g.NumPIs(), limit)
	m.stop = stop
	roots := make([]aig.Lit, g.NumPOs())
	for i := range roots {
		roots[i] = g.PO(i)
	}
	refs, err := m.BuildAIG(g, roots)
	if err != nil {
		return false, nil, err
	}
	for _, r := range refs {
		if r != False {
			assign, _ := m.AnySat(r)
			return false, assign, nil
		}
	}
	return true, nil, nil
}
