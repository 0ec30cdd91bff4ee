// Package sat implements a CDCL Boolean satisfiability solver: two-watched
// literal propagation, first-UIP conflict analysis with clause learning,
// VSIDS branching with phase saving, Luby restarts, learnt-clause database
// reduction, incremental solving under assumptions, and conflict budgets
// (the -C knob of ABC's &cec that the sweeping baseline relies on).
package sat

import "sort"

// Lit is a literal: variable index shifted left once, with the low bit set
// for negation. Variables are numbered from 0.
type Lit int32

// MkLit builds the literal of variable v, negated when neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the variable index of the literal.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Neg returns the negation of the literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Status is a solver verdict.
type Status int

// Solver verdicts. Unknown is returned when the conflict budget is
// exhausted before a decision was reached.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String renders the solver verdict.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

const (
	lUndef int8 = -1
	lFalse int8 = 0
	lTrue  int8 = 1
)

type clause struct {
	lits     []Lit
	activity float64
	learnt   bool
}

// Stats accumulates solver counters across Solve calls.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnt       int64
}

// Solver is a CDCL solver. The zero value is not usable; construct with
// New. A Solver is not safe for concurrent use.
type Solver struct {
	clauses []*clause
	learnts []*clause
	watches [][]*clause // per literal

	assigns  []int8
	level    []int32
	reason   []*clause
	polarity []bool // saved phases
	activity []float64
	varInc   float64

	order *varHeap

	trail    []Lit
	trailLim []int
	qhead    int

	seen     []bool
	ok       bool // false once a top-level conflict is derived
	claInc   float64
	maxLrnts int

	conflictLimit int64       // per Solve call; 0 means unlimited
	stop          func() bool // cancellation probe, polled every 32 conflicts
	stats         Stats
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{ok: true, varInc: 1, claInc: 1, maxLrnts: 4096}
	s.order = newVarHeap(&s.activity)
	return s
}

// SetConflictLimit bounds the conflicts of each subsequent Solve call;
// n <= 0 removes the bound. When the bound is hit Solve returns Unknown.
func (s *Solver) SetConflictLimit(n int64) { s.conflictLimit = n }

// SetStop installs a cancellation probe polled once per 32 conflicts;
// when it reports true, Solve abandons the call and returns Unknown, so
// an unbounded solve stays cooperatively cancellable between conflicts
// (a conflict-free solve terminates on its own: every decision assigns a
// variable). A probe that reads the clock can thus bound a call by wall
// time to within a few dozen conflicts. nil removes the probe.
func (s *Solver) SetStop(f func() bool) { s.stop = f }

// Stats returns the accumulated counters.
func (s *Solver) Stats() Stats { return s.stats }

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NewVar creates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.polarity = append(s.polarity, true) // default to negative phase
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

func (s *Solver) litValue(l Lit) int8 {
	a := s.assigns[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Sign() {
		return 1 - a
	}
	return a
}

// AddClause adds a clause over existing variables. It returns false when
// the clause makes the formula trivially unsatisfiable at the top level.
// Adding a clause invalidates the model of a previous Sat answer: the
// solver backtracks to decision level 0 first.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.backtrackTo(0)
	// Sort, dedupe, drop false literals, detect tautologies.
	ls := append([]Lit(nil), lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Neg() {
			return true // tautology
		}
		switch s.litValue(l) {
		case lTrue:
			return true // already satisfied
		case lFalse:
			continue // drop falsified literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		s.ok = s.propagate() == nil
		return s.ok
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], c)
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation and returns a conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		var confl *clause
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			if confl != nil {
				kept = append(kept, c)
				continue
			}
			// Normalise so the false literal is lits[1].
			if c.lits[0] == p.Neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.litValue(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Look for a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			kept = append(kept, c)
			if s.litValue(c.lits[0]) == lFalse {
				confl = c
				continue
			}
			s.uncheckedEnqueue(c.lits[0], c)
		}
		s.watches[p] = kept
		if confl != nil {
			s.qhead = len(s.trail)
			return confl
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Pick the next literal from the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Neg()
			break
		}
		confl = s.reason[v]
	}

	// Cheap minimisation: drop literals implied by their own reason
	// clause within the learnt clause. Keep the pre-minimisation list so
	// every seen flag is cleared afterwards.
	full := append([]Lit(nil), learnt...)
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if !s.redundant(l) {
			out = append(out, l)
		}
	}
	learnt = out

	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, l := range full {
		s.seen[l.Var()] = false
	}
	return learnt, btLevel
}

// redundant reports whether literal l of a learnt clause is implied by the
// remaining literals via its reason clause (one-step self-subsumption).
func (s *Solver) redundant(l Lit) bool {
	r := s.reason[l.Var()]
	if r == nil {
		return false
	}
	for _, q := range r.lits {
		if q == l.Neg() || s.level[q.Var()] == 0 {
			continue
		}
		if !s.seen[q.Var()] {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	if !c.learnt {
		return
	}
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, lc := range s.learnts {
			lc.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := s.trailLim[level]
	for i := len(s.trail) - 1; i >= lim; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = s.assigns[v] == lFalse
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.assigns[v] == lUndef {
			return v
		}
	}
}

// reduceDB halves the learnt-clause database, dropping low-activity
// clauses that are not reasons of current assignments.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool { return s.learnts[i].activity > s.learnts[j].activity })
	keep := s.learnts[:0]
	locked := make(map[*clause]bool)
	for _, r := range s.reason {
		if r != nil {
			locked[r] = true
		}
	}
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if i < limit || locked[c] || len(c.lits) == 2 {
			keep = append(keep, c)
		} else {
			s.detach(c)
		}
	}
	s.learnts = keep
}

func (s *Solver) detach(c *clause) {
	for _, w := range [2]Lit{c.lits[0].Neg(), c.lits[1].Neg()} {
		ws := s.watches[w]
		for i, cc := range ws {
			if cc == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence element i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve decides satisfiability under the given assumptions. It returns
// Unknown when the conflict budget set by SetConflictLimit is exhausted.
// After Sat, Value reads the model.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	s.backtrackTo(0)
	if c := s.propagate(); c != nil {
		s.ok = false
		return Unsat
	}

	startConfl := s.stats.Conflicts
	restartNum := int64(1)
	restartBudget := luby(restartNum) * 100

	for {
		confl := s.propagate()
		if confl != nil {
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			// Backtracking may land inside the assumption prefix;
			// the decision loop below re-establishes the remaining
			// assumptions in order, so the prefix stays aligned.
			learnt, btLevel := s.analyze(confl)
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				s.backtrackTo(0)
				if s.litValue(learnt[0]) == lFalse {
					s.ok = false
					return Unsat
				}
				if s.litValue(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], nil)
				}
			} else {
				c := &clause{lits: append([]Lit(nil), learnt...), learnt: true}
				s.learnts = append(s.learnts, c)
				s.stats.Learnt++
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.conflictLimit > 0 && s.stats.Conflicts-startConfl >= s.conflictLimit {
				s.backtrackTo(0)
				return Unknown
			}
			if s.stop != nil && (s.stats.Conflicts-startConfl)&0x1F == 0 && s.stop() {
				s.backtrackTo(0)
				return Unknown
			}
			if s.stats.Conflicts-startConfl >= restartBudget {
				restartNum++
				restartBudget += luby(restartNum) * 100
				s.stats.Restarts++
				s.backtrackTo(0)
			}
			if len(s.learnts) > s.maxLrnts {
				s.reduceDB()
			}
			continue
		}

		// Re-establish assumptions after backtracking, then decide.
		next := Lit(-1)
		for s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case lTrue:
				// Already satisfied: open an empty level to keep the
				// prefix aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				// Assumptions contradict the formula (under current
				// learnt clauses): report Unsat for this call.
				s.backtrackTo(0)
				return Unsat
			}
			next = a
			break
		}
		if next < 0 {
			v := s.pickBranchVar()
			if v < 0 {
				return Sat // all variables assigned
			}
			s.stats.Decisions++
			next = MkLit(v, s.polarity[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, nil)
	}
}

// Value returns the model value of variable v after a Sat answer.
func (s *Solver) Value(v int) bool { return s.assigns[v] == lTrue }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }
