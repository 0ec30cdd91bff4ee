package sat

import (
	"math/rand"
	"slices"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(MkLit(a, false)) {
		t.Fatal("unit clause rejected")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("status = %v", st)
	}
	if !s.Value(a) {
		t.Fatal("unit not assigned true")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if s.AddClause(MkLit(a, true)) {
		t.Fatal("contradicting unit accepted")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("status = %v", st)
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	if !s.AddClause(MkLit(a, false), MkLit(a, true)) {
		t.Fatal("tautology rejected")
	}
	if !s.AddClause(MkLit(a, false), MkLit(a, false), MkLit(b, false)) {
		t.Fatal("duplicate literals rejected")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("status = %v", st)
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n) is unsatisfiable and requires real conflict analysis.
	for _, n := range []int{3, 4, 5} {
		s := New()
		// vars[p][h]: pigeon p in hole h.
		vars := make([][]int, n+1)
		for p := range vars {
			vars[p] = make([]int, n)
			for h := range vars[p] {
				vars[p][h] = s.NewVar()
			}
		}
		for p := 0; p <= n; p++ {
			cl := make([]Lit, n)
			for h := 0; h < n; h++ {
				cl[h] = MkLit(vars[p][h], false)
			}
			s.AddClause(cl...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.AddClause(MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
				}
			}
		}
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(%d,%d) = %v, want UNSAT", n+1, n, st)
		}
	}
}

func TestGraphColoringSat(t *testing.T) {
	// A 5-cycle is 3-colourable.
	s := New()
	const n, k = 5, 3
	v := make([][]int, n)
	for i := range v {
		v[i] = make([]int, k)
		for c := range v[i] {
			v[i][c] = s.NewVar()
		}
		cl := make([]Lit, k)
		for c := 0; c < k; c++ {
			cl[c] = MkLit(v[i][c], false)
		}
		s.AddClause(cl...)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		for c := 0; c < k; c++ {
			s.AddClause(MkLit(v[i][c], true), MkLit(v[j][c], true))
		}
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("5-cycle 3-colouring = %v", st)
	}
	// Verify the model.
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		any := false
		for c := 0; c < k; c++ {
			if s.Value(v[i][c]) {
				any = true
				if s.Value(v[j][c]) {
					t.Fatalf("adjacent vertices %d,%d share colour %d", i, j, c)
				}
			}
		}
		if !any {
			t.Fatalf("vertex %d uncoloured", i)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	c := s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, false)) // a -> b
	s.AddClause(MkLit(b, true), MkLit(c, false)) // b -> c
	if st := s.Solve(MkLit(a, false), MkLit(c, true)); st != Unsat {
		t.Fatalf("a & !c = %v, want UNSAT", st)
	}
	if st := s.Solve(MkLit(a, false)); st != Sat {
		t.Fatalf("a = %v, want SAT", st)
	}
	if !s.Value(b) || !s.Value(c) {
		t.Fatal("implications not propagated under assumption")
	}
	// Solver must remain reusable after an assumption-unsat call.
	if st := s.Solve(MkLit(c, true)); st != Sat {
		t.Fatalf("!c alone = %v, want SAT", st)
	}
	if s.Value(a) {
		t.Fatal("a must be false when c is false")
	}
}

// addPigeonhole loads the UNSAT PHP(n+1, n) instance into a fresh solver;
// it needs real conflict analysis to refute, so it exercises budgets and
// cancellation.
func addPigeonhole(n int) *Solver {
	s := New()
	pigeonhole(s, n)
	return s
}

// pigeonhole adds the clauses of PHP(n+1, n) to s, each extended by the
// literals of guard.
func pigeonhole(s *Solver, n int, guard ...Lit) {
	vars := make([][]int, n+1)
	for p := range vars {
		vars[p] = make([]int, n)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		cl := append([]Lit(nil), guard...)
		for h := 0; h < n; h++ {
			cl = append(cl, MkLit(vars[p][h], false))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(append([]Lit{MkLit(vars[p1][h], true), MkLit(vars[p2][h], true)}, guard...)...)
			}
		}
	}
}

func TestConflictLimit(t *testing.T) {
	// A hard pigeonhole instance with a tiny budget returns Unknown.
	s := addPigeonhole(8)
	s.SetConflictLimit(10)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("budgeted PHP = %v, want Unknown", st)
	}
	s.SetConflictLimit(0)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("unbudgeted PHP = %v, want Unsat", st)
	}

}

// guardedPigeonhole is PHP(n+1, n) with every clause guarded by an
// activation literal: satisfiable on its own, unsatisfiable under the
// returned assumption, so the call always ends on a false assumption.
func guardedPigeonhole(n int) (*Solver, Lit) {
	s := New()
	act := MkLit(s.NewVar(), false)
	pigeonhole(s, n, act.Neg())
	return s, act
}

// TestConflictLimitAnswersAtItsCost: a call that needs k conflicts answers
// under a limit of k, and under a limit of k-1 it returns Unknown after
// spending exactly k-1. The limit is tested before the search analyzes a
// further conflict or makes a free decision, not right after learning, so
// the learnt clause that concludes the call is still propagated.
func TestConflictLimitAnswersAtItsCost(t *testing.T) {
	for n := 3; n <= 6; n++ {
		s, act := guardedPigeonhole(n)
		if st := s.Solve(act); st != Unsat {
			t.Fatalf("PHP(%d): guarded call = %v, want Unsat", n, st)
		}
		k := s.Stats().Conflicts
		if k < 2 {
			t.Fatalf("PHP(%d): %d conflicts, too few to test a limit", n, k)
		}
		for _, tc := range []struct {
			limit int64
			want  Status
		}{{k, Unsat}, {k - 1, Unknown}} {
			s, act := guardedPigeonhole(n)
			s.SetConflictLimit(tc.limit)
			st := s.Solve(act)
			if got := s.Stats().Conflicts; st != tc.want || got != min(k, tc.limit) {
				t.Fatalf("PHP(%d), %d conflicts unbudgeted, limit %d: %v after %d conflicts, want %v after %d",
					n, k, tc.limit, st, got, tc.want, min(k, tc.limit))
			}
			// The solver stays usable: an unbudgeted retry answers.
			s.SetConflictLimit(0)
			if st := s.Solve(act); st != Unsat {
				t.Fatalf("PHP(%d): retry after limit %d = %v, want Unsat", n, tc.limit, st)
			}
		}
	}
}

func TestSetStopCancelsUnboundedSolve(t *testing.T) {
	// The stop probe cancels an unbounded solve on a fresh instance: it
	// fires every 32 conflicts, so the cancelled call consumes barely
	// more than that, and clearing the probe restores completeness.
	s := addPigeonhole(8)
	probed := 0
	s.SetStop(func() bool { probed++; return true })
	if st := s.Solve(); st != Unknown {
		t.Fatalf("stopped PHP = %v, want Unknown", st)
	}
	if probed == 0 {
		t.Fatal("stop probe never polled")
	}
	if got := s.Stats().Conflicts; got > 64 {
		t.Fatalf("cancelled solve burned %d conflicts, want <=64", got)
	}
	s.SetStop(nil)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("probe-cleared PHP = %v, want Unsat", st)
	}
}

// bruteForce decides satisfiability of a clause set by enumeration.
func bruteForce(numVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(numVars); m++ {
		ok := true
		for _, cl := range clauses {
			sat := false
			for _, l := range cl {
				val := (m>>uint(l.Var()))&1 == 1
				if val != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		numVars := 4 + rng.Intn(5)
		numClauses := 2 + rng.Intn(30)
		clauses := make([][]Lit, numClauses)
		for i := range clauses {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, k)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(numVars), rng.Intn(2) == 1)
			}
			clauses[i] = cl
		}
		s := New()
		for v := 0; v < numVars; v++ {
			s.NewVar()
		}
		okAdd := true
		for _, cl := range clauses {
			if !s.AddClause(cl...) {
				okAdd = false
				break
			}
		}
		want := bruteForce(numVars, clauses)
		var got Status
		if !okAdd {
			got = Unsat
		} else {
			got = s.Solve()
		}
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver=%v brute=%v clauses=%v", trial, got, want, clauses)
		}
		if got == Sat {
			// Verify the model satisfies every clause.
			for ci, cl := range clauses {
				sat := false
				for _, l := range cl {
					if s.Value(l.Var()) != l.Sign() {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model violates clause %d", trial, ci)
				}
			}
		}
	}
}

// TestRandomWithAssumptionsAgainstBruteForce checks incremental calls
// under assumptions against enumeration. The learnt-clause cap is lowered
// so that reduceDB runs inside the calls, and it also runs between them
// on a Sat answer, while the model's reasons are live: every reason must
// survive as an attached clause (the lock test), and the arena must be
// compacted in some trial.
func TestRandomWithAssumptionsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	reduced, compacted := 0, false
	for trial := 0; trial < 300; trial++ {
		numVars := 4 + rng.Intn(8)
		numClauses := 2 + rng.Intn(5*numVars)
		clauses := make([][]Lit, numClauses)
		for i := range clauses {
			k := 1 + rng.Intn(3)
			if numVars > 7 {
				k = 3
			}
			cl := make([]Lit, k)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(numVars), rng.Intn(2) == 1)
			}
			clauses[i] = cl
		}
		s := New()
		s.maxLrnts = 2
		for v := 0; v < numVars; v++ {
			s.NewVar()
		}
		okAdd := true
		for _, cl := range clauses {
			if !s.AddClause(cl...) {
				okAdd = false
				break
			}
		}
		// Four incremental calls with different assumptions.
		for call := 0; call < 4; call++ {
			na := 1 + rng.Intn(2)
			seenVar := map[int]bool{}
			var assumps []Lit
			for len(assumps) < na {
				v := rng.Intn(numVars)
				if seenVar[v] {
					continue
				}
				seenVar[v] = true
				assumps = append(assumps, MkLit(v, rng.Intn(2) == 1))
			}
			all := append([][]Lit{}, clauses...)
			for _, a := range assumps {
				all = append(all, []Lit{a})
			}
			want := bruteForce(numVars, all)
			var got Status
			if !okAdd {
				got = Unsat
			} else {
				got = s.Solve(assumps...)
			}
			if (got == Sat) != want {
				t.Fatalf("trial %d call %d: solver=%v brute=%v", trial, call, got, want)
			}
			if got == Sat && len(s.learnts) > 0 {
				before := len(s.arena)
				s.reduceDB()
				reduced++
				compacted = compacted || len(s.arena) < before
				checkReasonsAttached(t, s)
			}
		}
	}
	if reduced == 0 || !compacted {
		t.Fatalf("reduceDB ran %d times between calls, compacted %v: the test no longer covers them", reduced, compacted)
	}
}

// checkReasonsAttached fails unless every assigned variable's reason is a
// live clause that implies it (its literal of the variable true, every
// other literal false) and that its first two literals still watch.
func checkReasonsAttached(t *testing.T, s *Solver) {
	t.Helper()
	for v, r := range s.reason {
		if r == noClause || s.vals[2*v] == lUndef {
			continue
		}
		if !slices.Contains(s.clauses, r) && !slices.Contains(s.learnts, r) {
			t.Fatalf("reason of var %d was deleted", v)
		}
		ls := s.lits(r)
		for _, l := range ls {
			if want := l.Var() == v; (s.vals[l] == lTrue) != want {
				t.Fatalf("reason %v of var %d does not imply it", ls, v)
			}
		}
		for _, l := range ls[:2] {
			found := false
			for _, w := range s.watches[l.Neg()] {
				found = found || w.c == r || w.c == ^r
			}
			if !found {
				t.Fatalf("reason of var %d is not watched on %v", v, l)
			}
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestManyVarsStressSat(t *testing.T) {
	// A long implication chain plus random satisfiable 2-SAT noise.
	s := New()
	const n = 2000
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(MkLit(vars[i], true), MkLit(vars[i+1], false))
	}
	s.AddClause(MkLit(vars[0], false))
	if st := s.Solve(); st != Sat {
		t.Fatalf("chain = %v", st)
	}
	for i := range vars {
		if !s.Value(vars[i]) {
			t.Fatalf("var %d not propagated true", i)
		}
	}
}
