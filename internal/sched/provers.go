package sched

import (
	"fmt"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/bdd"
	"simsweep/internal/cnf"
	"simsweep/internal/fault"
	"simsweep/internal/sat"
	"simsweep/internal/sim"
)

// attempt is the outcome of one prover's shot at one class unit. Provers
// never mutate the unit; the control goroutine applies attempts in
// deterministic unit order, so a discarded dispatch (a panicked kernel)
// costs nothing but the wave.
type attempt struct {
	proved    []int    // indices into classUnit.pairs
	disproved []int    // ditto; cexs[k] belongs to disproved[k]
	cexs      [][]bool // full-PI counter-example patterns
	satCalls  int
	conflicts int64
	failed    bool   // at least one pending pair left undecided
	parked    bool   // skipped by a parking trigger; the final PO pass owns it
	fault     string // recovered per-class fault, "" when clean
	stopped   bool   // Options.Stop observed mid-attempt
}

// satProbeWindow is how many solver calls the SAT wave samples before
// judging the family trivial: once the window is full and the calls
// averaged under one conflict each, the remaining classes of the wave are
// parked for the final PO pass, which proves pure-propagation POs at the
// same cost without the per-pair dispatch. Documented in DESIGN.md
// ("Class scheduling").
const satProbeWindow = 32

// satWaveBudget is the wall-clock each SAT wave may spend before parking
// its remaining classes. Per-class queries on a large miter can be cheap
// in conflicts yet expensive in wall time — every solver call propagates
// over the whole shared clause database — and the run's priors do not
// track wall time. The budget makes the run anytime: the wave proves what
// fits and parks the tail.
const satWaveBudget = 500 * time.Millisecond

// satRunBudget is the cumulative wall-clock a whole run may spend in
// per-class SAT dispatch before the fuse blows and every later SAT wave
// parks outright. Without the fuse a family whose classes keep
// re-forming round after round respreads the same per-class cost across
// rounds forever; with it the run stalls and falls to the final PO pass.
const satRunBudget = 500 * time.Millisecond

// bddRunBudget is the cumulative wall-clock a whole run may spend in
// per-class BDD attempts before later BDD units park for the final PO
// pass — the BDD counterpart of satRunBudget. One blown-up family (deep
// arithmetic, where per-class managers hit the node limit 40ms at a time
// across hundreds of classes) must not serialise seconds of doomed BDD
// builds; the budget caps the damage at one fuse per run while leaving
// the niche BDD actually wins (wide shallow control and majority classes,
// a handful per miter) untouched.
const bddRunBudget = 500 * time.Millisecond

// maxBatchWork bounds the slot·word work of one exhaustive-sim batch so a
// wave of wide windows is chopped into several CheckBatch calls instead of
// one with a degenerate entry size.
const maxBatchWork = 1 << 24

// runSimGroup proves the group's classes by exhaustive simulation over
// their united supports: one global-function window per class, batched
// across classes so the device's cross-window parallelism applies. A
// truth-table match over the full support is a sound global proof; a
// mismatch is a genuine counter-example.
func (sc *sweeper) runSimGroup(cur *aig.AIG, g []*classUnit) []*attempt {
	atts := make([]*attempt, len(g))
	for i := range atts {
		atts[i] = &attempt{}
	}

	type slot struct {
		ui   int // index into g
		pi   int // index into the unit's pairs
		win  *sim.Window
		work int
	}
	var slots []slot
	for ui, u := range g {
		if u.support == nil {
			// Over the support cap: the feature pass routed it here only
			// under Force; enumeration is unaffordable, escalate.
			atts[ui].failed = true
			continue
		}
		spec := sim.Spec{Inputs: u.support}
		spec.Roots = append(spec.Roots, u.repr)
		for i, p := range u.pairs {
			if u.state[i] == pairPending {
				spec.Roots = append(spec.Roots, p.Member)
			}
		}
		win, err := sim.BuildWindow(cur, spec)
		if err != nil {
			// The support union should always cut the class from the PIs;
			// failing here is a bookkeeping fault, not a disproof.
			atts[ui].failed = true
			atts[ui].fault = fmt.Sprintf("sched.sim.window: %v", err)
			continue
		}
		work := win.NumSlots() * win.TTWords()
		if win.NumSlots() > sc.ex.BudgetWords || work > maxBatchWork {
			atts[ui].failed = true
			continue
		}
		slots = append(slots, slot{ui: ui, win: win, work: work})
	}

	// Greedy batching under the memory and work bounds.
	piIndex := sim.PIIndex(cur)
	for lo := 0; lo < len(slots); {
		hi, sumSlots, sumWork := lo, 0, 0
		for hi < len(slots) {
			s := slots[hi]
			if hi > lo && (sumSlots+s.win.NumSlots() > sc.ex.BudgetWords || sumWork+s.work > maxBatchWork) {
				break
			}
			sumSlots += s.win.NumSlots()
			sumWork += s.work
			hi++
		}

		var pairs []sim.Pair
		type ref struct{ ui, pi int }
		var refs []ref
		var windows []*sim.Window
		for _, s := range slots[lo:hi] {
			u := g[s.ui]
			w := s.win
			w.PairIdx = w.PairIdx[:0]
			for i, p := range u.pairs {
				if u.state[i] != pairPending {
					continue
				}
				w.PairIdx = append(w.PairIdx, int32(len(pairs)))
				pairs = append(pairs, sim.Pair{A: p.Repr, B: p.Member, Compl: p.Compl})
				refs = append(refs, ref{ui: s.ui, pi: i})
			}
			windows = append(windows, w)
		}
		res := sc.ex.CheckBatch(cur, pairs, windows)
		switch {
		case res.Err != nil:
			// The verdicts were withdrawn; fail the batch's units and let
			// them escalate. Record the fault once.
			for k, s := range slots[lo:hi] {
				atts[s.ui].failed = true
				if k == 0 {
					atts[s.ui].fault = fmt.Sprintf("sched.sim: %v", res.Err)
				}
			}
		case res.Stopped:
			for _, s := range slots[lo:hi] {
				atts[s.ui].failed = true
				atts[s.ui].stopped = true
			}
		default:
			for k, r := range refs {
				a := atts[r.ui]
				if res.Equal[k] {
					a.proved = append(a.proved, r.pi)
				} else if cex := res.CEXs[k]; cex != nil {
					a.disproved = append(a.disproved, r.pi)
					a.cexs = append(a.cexs, cex.Vector(piIndex, cur.NumPIs()))
				} else {
					a.failed = true
				}
			}
		}
		lo = hi
	}
	return atts
}

// runSATGroup runs one conflict-limited SAT attempt per class against a
// single incremental solver and encoder shared by the whole wave — the
// satsweep idiom: overlapping cones are encoded once, not once per class,
// which is what makes per-class SAT routing affordable on large miters. A
// blow-up (injected or real) is recovered per class; because it may have
// poisoned the shared solver, the rest of the wave fails conservatively
// and escalates.
func (sc *sweeper) runSATGroup(cur *aig.AIG, g []*classUnit) []*attempt {
	atts := make([]*attempt, len(g))
	solver := sat.New()
	solver.SetConflictLimit(sc.opt.routeConflictLimit)
	solver.SetStop(sc.opt.stopped)
	enc := cnf.NewEncoder(cur, solver)
	var probeCalls int
	var probeConflicts int64
	waveStart := time.Now()
	for i, u := range g {
		// Three parking triggers, all disabled under Force so mono-engine
		// baselines measure their true cost. The probe: once enough calls
		// are in and they averaged under one conflict each, the family's
		// proofs are pure propagation — park the rest of the wave for the
		// final PO pass instead of serialising thousands of no-op
		// dispatches.
		// The wave budget bounds one wave's wall clock; the run fuse
		// bounds the whole run's SAT spend and pushes chronically
		// re-forming classes to the final PO pass.
		if sc.opt.Force == "" &&
			((probeCalls >= satProbeWindow && probeConflicts < int64(probeCalls)) ||
				(i > 0 && time.Since(waveStart) > satWaveBudget) ||
				sc.satSpent > satRunBudget) {
			for j := i; j < len(g); j++ {
				atts[j] = &attempt{parked: true}
			}
			break
		}
		unitStart := time.Now()
		atts[i] = sc.satUnit(cur, u, solver, enc)
		sc.satSpent += time.Since(unitStart)
		probeCalls += atts[i].satCalls
		probeConflicts += atts[i].conflicts
		if atts[i].fault != "" {
			for j := i + 1; j < len(g); j++ {
				atts[j] = &attempt{failed: true}
			}
			break
		}
	}
	return atts
}

// satUnit runs the conflict-limited SAT attempt for one class on the
// wave's shared solver.
func (sc *sweeper) satUnit(cur *aig.AIG, u *classUnit, solver *sat.Solver, enc *cnf.Encoder) (a *attempt) {
	a = &attempt{}
	defer func() {
		if r := recover(); r != nil {
			a.failed = true
			a.fault = fmt.Sprintf("sched.sat.recovered: %v", r)
		}
	}()
	// The class's round budget: 4x the per-call limit, spread over however
	// many pairs fit. A class that eats the budget fails and escalates
	// rather than serialising hundreds of per-pair solves.
	budget := 4 * sc.opt.routeConflictLimit
	for i, p := range u.pairs {
		if u.state[i] != pairPending {
			continue
		}
		if sc.opt.stopped() {
			a.stopped = true
			a.failed = true
			return a
		}
		if a.conflicts >= budget {
			a.failed = true
			return a
		}
		// Model a resource blow-up building or solving this pair's query;
		// the panic unwinds to the per-class recovery above.
		sc.opt.Faults.Panic(fault.HookSATOOM)
		assume := enc.XorAssumption(aig.MakeLit(int(p.Repr), false), aig.MakeLit(int(p.Member), p.Compl))
		a.satCalls++
		before := solver.Stats().Conflicts
		status := solver.Solve(assume)
		a.conflicts += solver.Stats().Conflicts - before
		switch status {
		case sat.Unsat:
			a.proved = append(a.proved, i)
		case sat.Sat:
			a.disproved = append(a.disproved, i)
			a.cexs = append(a.cexs, enc.ModelInputs())
		default:
			a.failed = true
		}
	}
	return a
}

// runBDDGroup dispatches one bounded BDD attempt per class over the
// device. Hitting the per-class node limit fails the attempt — the
// classic BDD blow-up, handled by escalation instead of a lost run.
func (sc *sweeper) runBDDGroup(cur *aig.AIG, g []*classUnit) []*attempt {
	atts := make([]*attempt, len(g))
	err := sc.opt.Dev.Launch("sched.bdd", len(g), func(i int) {
		atts[i] = sc.bddUnit(cur, g[i])
	})
	if err != nil {
		return discardGroup(len(g), fmt.Sprintf("sched.bdd: %v", err))
	}
	return atts
}

// bddUnit builds the class's functions in a private bounded BDD manager
// and compares them symbolically. Units run concurrently, so the run
// budget is read and charged atomically; the fuse is disabled under Force
// so the mono-BDD baseline measures its true cost.
func (sc *sweeper) bddUnit(cur *aig.AIG, u *classUnit) (a *attempt) {
	if sc.opt.Force == "" && time.Duration(sc.bddSpent.Load()) > bddRunBudget {
		return &attempt{parked: true}
	}
	a = &attempt{}
	unitStart := time.Now()
	defer func() {
		if r := recover(); r != nil {
			a.failed = true
			a.fault = fmt.Sprintf("sched.bdd.recovered: %v", r)
		}
		sc.bddSpent.Add(int64(time.Since(unitStart)))
	}()
	if sc.opt.stopped() {
		a.stopped = true
		a.failed = true
		return a
	}
	man := bdd.New(cur.NumPIs(), bddNodeLimit)
	lits := []aig.Lit{aig.MakeLit(int(u.repr), false)}
	var idxs []int
	for i, p := range u.pairs {
		if u.state[i] != pairPending {
			continue
		}
		lits = append(lits, aig.MakeLit(int(p.Member), p.Compl))
		idxs = append(idxs, i)
	}
	refs, err := man.BuildAIG(cur, lits)
	if err != nil {
		a.failed = true
		return a
	}
	for k, idx := range idxs {
		x, err := man.Xor(refs[0], refs[k+1])
		if err != nil {
			a.failed = true
			return a
		}
		if x == bdd.False {
			a.proved = append(a.proved, idx)
			continue
		}
		assign, ok := man.AnySat(x)
		if !ok {
			a.failed = true
			continue
		}
		a.disproved = append(a.disproved, idx)
		a.cexs = append(a.cexs, append([]bool(nil), assign...))
	}
	return a
}

// discardGroup replaces a panicked dispatch's results with uniform
// failures carrying the kernel fault once.
func discardGroup(n int, fault string) []*attempt {
	atts := make([]*attempt, n)
	for i := range atts {
		atts[i] = &attempt{failed: true}
	}
	if n > 0 {
		atts[0].fault = fault
	}
	return atts
}
