// Package sat implements a CDCL Boolean satisfiability solver: two-watched
// literal propagation with blocker literals over a pointer-free clause
// arena, first-UIP conflict analysis with clause learning,
// VSIDS branching with phase saving, Luby restarts, learnt-clause database
// reduction, incremental solving under assumptions, decisions confined to
// a caller's variables (the cone of a circuit query), and conflict budgets
// (the -C knob of ABC's &cec that the sweeping baseline relies on).
package sat

import (
	"math"
	"slices"
	"sort"
)

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

// cref names a clause: the index of its header in the solver's clause
// arena. Every clause lives in that one []Lit as a header word (its size,
// shifted left by crefShift, over the learnt flag), then its literals,
// then, for a clause of more than longClause literals, its search position,
// then, for a learnt clause, its activity as two words of float64 bits.
// Watch lists and reasons hold crefs, not pointers, so propagation
// writes no pointer and the garbage collector scans none of the clauses.
type cref int32

// noClause is the reason of a decision, an assumption or a unit.
const noClause cref = -1

// The header word of an arena clause: its size above the learnt flag.
const (
	crefLearnt = 1
	crefShift  = 1
)

// longClause is the size above which a clause keeps its search position:
// the literal index where propagation last found it a new watch. The next
// search resumes there and wraps around (Gent, "Optimal Implementation of
// Watched Literals and More General Techniques", JAIR 2013), so a clause
// that loses its watches one by one is scanned about once instead of once
// per lost watch. A supergate's clause over 2^17 leaves would otherwise
// take 2^33 reads when its leaves are assigned in order.
const longClause = 16

// tail returns the words that a clause of n literals takes after its
// header, up to its activity.
func tail(n int) int {
	if n > longClause {
		return n + 1
	}
	return n
}

// watcher is one entry of a watch list. The list of literal p holds the
// clauses that watch ¬p, each with a blocker: a literal of the clause whose
// truth satisfies it, so propagation skips the clause without reading it.
// A binary clause is stored as ^c (negative): its blocker is its other
// literal, so the watcher is the whole clause and propagation never reads
// the arena for it.
type watcher struct {
	c       cref
	blocker Lit
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
	arena   []Lit // every clause; see cref
	wasted  int   // arena words of deleted clauses
	clauses []cref
	learnts []cref
	watches [][]watcher // per literal

	vals     []int8 // per literal: lTrue, lFalse or lUndef
	level    []int32
	reason   []cref
	polarity []bool // saved phases
	activity []float64
	varInc   float64

	order *varHeap
	// scope is the decision heap of a SolveIn call, over the same
	// activities as order; scoped is set while such a call runs.
	scope  *varHeap
	scoped bool

	trail    []Lit
	trailLim []int
	qhead    int

	seen     []bool
	learnt   []Lit // analyze's output buffer, reused across conflicts
	toClear  []Lit // analyze's seen flags to reset, reused likewise
	addBuf   []Lit // AddClause's sorting buffer
	ok       bool  // false once a top-level conflict is derived
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
	s.scope = newVarHeap(&s.activity)
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
func (s *Solver) NumVars() int { return len(s.level) }

// NewVar creates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noClause)
	s.polarity = append(s.polarity, true) // default to negative phase
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

func (s *Solver) litValue(l Lit) int8 { return s.vals[l] }

// AddClause adds a clause over existing variables. It returns false when
// the clause makes the formula trivially unsatisfiable at the top level.
// Adding a clause invalidates the model of a previous Sat answer: the
// solver backtracks to decision level 0 first.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.backtrackTo(0)
	// Sort, dedupe, drop false literals, detect tautologies. A supergate's
	// long clause can have thousands of literals, so the sort must not be
	// quadratic.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Neg() {
			return true // tautology
		}
		switch s.vals[l] {
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
		s.uncheckedEnqueue(out[0], noClause)
		s.ok = s.propagate() == noClause
		return s.ok
	}
	c := s.newClause(out, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// newClause appends a clause over lits to the arena.
func (s *Solver) newClause(lits []Lit, learnt bool) cref {
	c := cref(len(s.arena))
	h := Lit(len(lits)) << crefShift
	if learnt {
		h |= crefLearnt
	}
	s.arena = append(s.arena, h)
	s.arena = append(s.arena, lits...)
	if len(lits) > longClause {
		s.arena = append(s.arena, 2)
	}
	if learnt {
		s.arena = append(s.arena, 0, 0) // activity 0
	}
	return c
}

// lits returns the literals of clause c, in place in the arena.
func (s *Solver) lits(c cref) []Lit {
	i := int(c) + 1
	return s.arena[i : i+int(s.arena[c]>>crefShift)]
}

// words returns the words clause c takes in arena.
func words(arena []Lit, c cref) int {
	n := 1 + tail(int(arena[c]>>crefShift))
	if arena[c]&crefLearnt != 0 {
		n += 2
	}
	return n
}

// clauseAct returns the activity of learnt clause c.
func (s *Solver) clauseAct(c cref) float64 {
	i := int(c) + 1 + tail(int(s.arena[c]>>crefShift))
	return math.Float64frombits(uint64(uint32(s.arena[i])) | uint64(uint32(s.arena[i+1]))<<32)
}

// setClauseAct sets the activity of learnt clause c.
func (s *Solver) setClauseAct(c cref, a float64) {
	i := int(c) + 1 + tail(int(s.arena[c]>>crefShift))
	b := math.Float64bits(a)
	s.arena[i], s.arena[i+1] = Lit(uint32(b)), Lit(uint32(b>>32))
}

func (s *Solver) attach(c cref) {
	ls := s.lits(c)
	l0, l1 := ls[0], ls[1]
	w := c
	if len(ls) == 2 {
		w = ^c
	}
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], watcher{w, l1})
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], watcher{w, l0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation and returns a conflicting clause or
// noClause. It keeps the invariant that a clause of three or more literals
// watches lits[0] and lits[1] and implies only lits[0]; a binary clause
// implies either literal, in place.
func (s *Solver) propagate() cref {
	vals, arena := s.vals, s.arena
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		falseLit := p.Neg()
		ws := s.watches[p]
		i, j := 0, 0
		confl := noClause
		for i < len(ws) {
			w := ws[i]
			i++
			bv := vals[w.blocker]
			if bv == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.c < 0 {
				ws[j] = w
				j++
				if bv == lFalse {
					confl = ^w.c
					break
				}
				s.uncheckedEnqueue(w.blocker, ^w.c)
				continue
			}
			c := w.c
			ci := int(c) + 1
			lits := arena[ci : ci+int(arena[c]>>crefShift)]
			// Normalise so the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], falseLit
			}
			first := lits[0]
			w.blocker = first
			if vals[first] == lTrue {
				ws[j] = w
				j++
				continue
			}
			// Look for a new watch, from the search position of a long
			// clause.
			n, start := len(lits), 2
			if n > longClause {
				start = int(arena[ci+n])
			}
			k := start
			for k < n && vals[lits[k]] == lFalse {
				k++
			}
			if k == n {
				for k = 2; k < start && vals[lits[k]] == lFalse; k++ {
				}
				if k == start {
					k = n
				}
			}
			if k < n {
				l := lits[k]
				lits[1], lits[k] = l, falseLit
				if n > longClause {
					arena[ci+n] = Lit(k)
				}
				s.watches[l.Neg()] = append(s.watches[l.Neg()], w)
				continue
			}
			ws[j] = w
			j++
			if vals[first] == lFalse {
				confl = c
				break
			}
			s.uncheckedEnqueue(first, c)
		}
		if confl != noClause {
			j += copy(ws[j:], ws[i:])
			s.watches[p] = ws[:j]
			s.qhead = len(s.trail)
			return confl
		}
		if j < len(ws) {
			s.watches[p] = ws[:j]
		}
	}
	return noClause
}

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backtrack level. The clause
// lives in a buffer that the next call reuses.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learnt[:0], 0) // slot 0 for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range s.lits(confl) {
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
	full := append(s.toClear[:0], learnt...)
	s.learnt, s.toClear = learnt, full
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
	if r == noClause {
		return false
	}
	for _, q := range s.lits(r) {
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
	if s.scoped {
		s.scope.update(v)
	}
}

func (s *Solver) bumpClause(c cref) {
	if s.arena[c]&crefLearnt == 0 {
		return
	}
	a := s.clauseAct(c) + s.claInc
	s.setClauseAct(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setClauseAct(lc, s.clauseAct(lc)*1e-20)
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
		s.polarity[v] = l.Sign()
		s.vals[l] = lUndef
		s.vals[l^1] = lUndef
		s.reason[v] = noClause
		s.order.push(v)
		if s.scoped {
			s.scope.pushIn(v)
		}
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// decisions returns the heap that the current call decides from.
func (s *Solver) decisions() *varHeap {
	if s.scoped {
		return s.scope
	}
	return s.order
}

func (s *Solver) pickBranchVar() int {
	h := s.decisions()
	for {
		v, ok := h.pop()
		if !ok {
			return -1
		}
		if s.vals[2*v] == lUndef {
			return v
		}
	}
}

// reduceDB halves the learnt-clause database, dropping low-activity
// clauses that are not reasons of current assignments. Binary clauses are
// always kept, and a longer clause can only be the reason of its first
// literal (see propagate), so that literal's reason is the lock test.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool { return s.clauseAct(s.learnts[i]) > s.clauseAct(s.learnts[j]) })
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		ls := s.lits(c)
		if i < limit || len(ls) == 2 || s.reason[ls[0].Var()] == c {
			keep = append(keep, c)
		} else {
			s.detach(c)
			s.wasted += words(s.arena, c)
		}
	}
	s.learnts = keep
	if s.wasted > len(s.arena)/5 {
		s.compact()
	}
}

func (s *Solver) detach(c cref) {
	ls := s.lits(c)
	for _, w := range [2]Lit{ls[0].Neg(), ls[1].Neg()} {
		ws := s.watches[w]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// compact copies the live clauses into a fresh arena and renames them in
// the clause lists, the watch lists and the reasons. Each moved clause
// leaves its new cref in the old copy's first literal word.
func (s *Solver) compact() {
	old := s.arena
	s.arena = make([]Lit, 0, len(old)-s.wasted)
	move := func(cs []cref) {
		for i, c := range cs {
			n := cref(len(s.arena))
			s.arena = append(s.arena, old[int(c):int(c)+words(old, c)]...)
			old[c+1] = Lit(n)
			cs[i] = n
		}
	}
	move(s.clauses)
	move(s.learnts)
	for _, ws := range s.watches {
		for i, w := range ws {
			if w.c < 0 {
				ws[i].c = ^cref(old[^w.c+1])
			} else {
				ws[i].c = cref(old[w.c+1])
			}
		}
	}
	for v, r := range s.reason {
		if r != noClause {
			s.reason[v] = cref(old[r+1])
		}
	}
	s.wasted = 0
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
// Unknown when the conflict budget set by SetConflictLimit is exhausted:
// the budget is tested where the search would analyze a further conflict
// or make a free decision, so a call that gives up has spent exactly its
// limit, and a call whose last learnt clause concludes Unsat (by level-0
// propagation or a false assumption) answers under a limit equal to the
// conflicts it needs. After Sat, Value reads the model.
func (s *Solver) Solve(assumptions ...Lit) Status { return s.solve(nil, false, assumptions) }

// SolveIn is Solve with its decisions confined to the variables in scope:
// it answers Sat once every scope variable is assigned with no conflict,
// and a variable outside the scope takes a value only by propagation (Value
// reads an unassigned one as false). The answer is the answer of Solve, and
// the scope's part of the model extends to a model of every clause, when
// each clause over a variable outside the scope defines that variable as a
// function of others (a Tseitin definition) or is implied by the clauses,
// and the scope holds the variables that the definitions of its own
// variables mention, as the variables of a circuit query's cone do. Only
// the call's own heap over the scope is popped, so the search never visits
// the rest of the formula, and Solve afterwards still decides over every
// variable.
func (s *Solver) SolveIn(scope []int, assumptions ...Lit) Status {
	return s.solve(scope, true, assumptions)
}

func (s *Solver) solve(scope []int, scoped bool, assumptions []Lit) Status {
	if !s.ok {
		return Unsat
	}
	s.backtrackTo(0)
	if c := s.propagate(); c != noClause {
		s.ok = false
		return Unsat
	}
	if scoped {
		s.scope.build(scope)
		s.scoped = true
		defer s.endScope()
	}

	startConfl := s.stats.Conflicts
	restartNum := int64(1)
	restartBudget := luby(restartNum) * 100

	for {
		confl := s.propagate()
		if confl != noClause {
			if s.decisionLevel() == 0 {
				s.stats.Conflicts++
				s.ok = false
				return Unsat
			}
			if s.spent(startConfl) {
				s.backtrackTo(0)
				return Unknown
			}
			s.stats.Conflicts++
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
					s.uncheckedEnqueue(learnt[0], noClause)
				}
			} else {
				c := s.newClause(learnt, true)
				s.learnts = append(s.learnts, c)
				s.stats.Learnt++
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
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
				return Sat // all variables (of the scope) assigned
			}
			if s.spent(startConfl) {
				s.decisions().push(v)
				s.backtrackTo(0)
				return Unknown
			}
			s.stats.Decisions++
			next = MkLit(v, s.polarity[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, noClause)
	}
}

// endScope ends a SolveIn call: its heap empties, and every variable stays
// in order, which the call never popped.
func (s *Solver) endScope() {
	s.scoped = false
	s.scope.clear()
}

// spent reports whether the call that started at startConfl conflicts has
// used up its conflict limit.
func (s *Solver) spent(startConfl int64) bool {
	return s.conflictLimit > 0 && s.stats.Conflicts-startConfl >= s.conflictLimit
}

// Value returns the model value of variable v after a Sat answer.
func (s *Solver) Value(v int) bool { return s.vals[2*v] == lTrue }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }
