// Package satsweep implements the SAT sweeping baseline the paper compares
// against: the algorithm of ABC's &cec checker. Random simulation clusters
// miter nodes into equivalence classes, candidate pairs are proved or
// refuted by conflict-limited incremental SAT queries, counter-examples
// refine the classes, proved pairs reduce the miter FRAIG-style, and the
// loop repeats until the miter is decided or no further progress is made.
package satsweep

import (
	"fmt"
	"slices"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/cnf"
	"simsweep/internal/ec"
	"simsweep/internal/fault"
	"simsweep/internal/miter"
	"simsweep/internal/par"
	"simsweep/internal/sat"
	"simsweep/internal/sim"
	"simsweep/internal/trace"
)

// Options configures a sweep.
type Options struct {
	// Dev supplies the parallel device for simulation; nil creates a
	// default one.
	Dev *par.Device
	// ConflictLimit bounds each SAT call (ABC's -C); 0 means unlimited.
	ConflictLimit int64
	// simWords is the number of 64-pattern words of initial random
	// stimulus (default 8). Only tests set it, as they do maxRounds.
	simWords int
	// Seed seeds the random patterns.
	Seed int64
	// maxRounds bounds the sweep-reduce iterations (default 64).
	maxRounds int
	// Stop, when non-nil, cancels the sweep cooperatively (checked
	// between SAT calls); a cancelled run returns Undecided.
	Stop <-chan struct{}
	// SeedBank prepends an upstream simulator's pattern bank (per PI
	// index) to the random stimulus — the paper's §V "EC transferring":
	// pairs already disproved upstream never reach the SAT solver.
	SeedBank [][]uint64
	// Trace, when non-nil and enabled, receives one span per SAT call
	// with the solver status and the conflicts the call consumed.
	Trace *trace.Tracer
	// Faults, when armed, is consulted before each pair's SAT call for the
	// satsweep.pair.oom hook — a hit panics, modelling a resource blow-up,
	// and is recovered by CheckMiter into an Undecided degraded result.
	// Nil-safe.
	Faults *fault.Injector
}

// stopped reports whether the caller cancelled the sweep.
func (o *Options) stopped() bool { return par.Stopped(o.Stop) }

func (o *Options) fill() {
	if o.Dev == nil {
		o.Dev = par.NewDevice(0)
	}
	if o.simWords <= 0 {
		o.simWords = 8
	}
	if o.maxRounds <= 0 {
		o.maxRounds = 64
	}
}

// Stats reports the work of a sweep.
type Stats struct {
	SATCalls  int
	Proved    int
	Disproved int
	Unknown   int
	Rounds    int
	Runtime   time.Duration
}

// Result is the outcome of CheckMiter: the verdict, a PI counter-example
// when NotEquivalent, the final (possibly reduced) miter, and statistics.
type Result struct {
	Outcome miter.Outcome
	// Stopped reports that the sweep returned Undecided because
	// Options.Stop cancelled it.
	Stopped bool
	CEX     []bool
	Reduced *aig.AIG
	Stats   Stats
	// Faults lists the internal faults the sweep survived (recovered
	// panics, failed simulation kernels), oldest first. A non-empty chain
	// with an Undecided outcome means the sweep degraded rather than
	// genuinely exhausting its budget.
	Faults []string
}

// CheckMiter decides whether the miter m is constant zero. With an
// unlimited conflict budget the sweep is complete: it returns Equivalent or
// NotEquivalent. With a budget it may return Undecided together with the
// reduced miter.
//
// The sweep never propagates a panic: a panicking round (a genuine bug, an
// injected satsweep.pair.oom fault, or a blow-up in the solver) is recovered
// into an Undecided result carrying the original miter and the fault chain,
// so a crashing backend costs a verdict, not the process.
func CheckMiter(m *aig.AIG, opt Options) (res Result) {
	defer recovered(m, time.Now(), &res)
	return checkMiter(m, opt)
}

// CheckPOs is the sweep's final PO pass on its own, under a budget of
// unanswered conflicts: every non-constant PO of m is asked on one
// incremental solver, with no class sweeping first. A model is a
// counter-example; all POs proved is Equivalent. Each call's conflict limit
// is the budget not yet charged, or opt.ConflictLimit when that is set and
// smaller, and only a call that ends with no answer is charged, with the
// conflicts it spent: a proved PO or a model costs nothing. So the charge
// never exceeds the budget. Once the charge reaches it the pass asks
// nothing more (budget <= 0 asks nothing at all) and ends Undecided, and
// Reduced is m with the POs proved so far merged to constant zero. No
// clock enters the charge: the pass's outcome depends only on its
// arguments. Panics are recovered as in CheckMiter.
//
// The POs in stalled (sorted PO indices) are asked after every other open
// PO, so a PO that an earlier pass could not answer does not eat the budget
// of the POs behind it. CheckPOs returns the unanswered conflicts charged
// and stalled with the POs whose call ended with no answer added; PO
// positions survive miter.Reduce, so the set carries over to the next pass
// on Reduced.
func CheckPOs(m *aig.AIG, opt Options, budget int64, stalled []int) (res Result, unanswered int64, stalledAfter []int) {
	defer recovered(m, time.Now(), &res)
	meter := &charge{budget: budget}
	res, stalledAfter = finishPOs(m, opt, Result{Reduced: m}, meter, stalled)
	return res, meter.spent, stalledAfter
}

// charge meters a budgeted PO pass in conflicts: the conflicts of the calls
// that ended with no answer, against the budget. A nil charge is no budget.
type charge struct {
	budget, spent int64
}

// spentUp reports, between calls, that the charge has reached the budget.
func (c *charge) spentUp() bool { return c != nil && c.spent >= c.budget }

// limit returns the conflict limit of the next call: the budget left, or
// the caller's per-call limit (0: none) when that is smaller.
func (c *charge) limit(perCall int64) int64 {
	if c == nil {
		return perCall
	}
	if left := c.budget - c.spent; perCall <= 0 || left < perCall {
		return left
	}
	return perCall
}

// end charges a call that ended with status st after spending conflicts.
func (c *charge) end(st sat.Status, conflicts int64) {
	if c != nil && st == sat.Unknown {
		c.spent += conflicts
	}
}

// recovered turns a panic of a sweep over m into an Undecided result that
// carries m and the fault, and stamps the sweep's runtime. Defer it.
func recovered(m *aig.AIG, start time.Time, res *Result) {
	if r := recover(); r != nil {
		*res = Result{
			Outcome: miter.Undecided,
			Reduced: m,
			Faults:  []string{fmt.Sprintf("satsweep.recovered: %v", r)},
		}
	}
	res.Stats.Runtime = time.Since(start)
}

func checkMiter(m *aig.AIG, opt Options) Result {
	opt.fill()
	res := Result{Reduced: m}

	partial := sim.NewPartial(opt.Dev, m.NumPIs(), opt.simWords, opt.Seed)
	if opt.SeedBank != nil {
		partial.ImportBank(opt.SeedBank)
	}

	cur := m
	for round := 0; round < opt.maxRounds; round++ {
		if opt.stopped() {
			res.Stopped = true
			res.Reduced = cur
			return res
		}
		res.Stats.Rounds++
		if miter.IsProved(cur) {
			res.Outcome = miter.Equivalent
			res.Reduced = cur
			return res
		}

		sims, err := partial.Simulate(cur)
		if err != nil {
			// A simulation kernel failed; its signatures are garbage and
			// must not build classes or disproofs. Degrade to Undecided.
			res.Faults = append(res.Faults, fmt.Sprintf("sim.partial: %v", err))
			res.Reduced = cur
			return res
		}
		if po, cex := partial.FindNonZeroPO(cur, sims); po >= 0 {
			res.Outcome = miter.NotEquivalent
			res.CEX = cex
			res.Reduced = cur
			return res
		}
		classes := ec.Build(cur.NumNodes(), func(id int) []uint64 { return sims[id] }, func(id int) bool {
			return cur.IsAnd(id) || cur.IsPI(id)
		})

		merges, progressed := sweepRound(cur, classes, partial, opt, &res.Stats)
		if len(merges) > 0 {
			reduced, _, err := miter.Reduce(cur, merges)
			if err != nil {
				// A merge-bookkeeping bug would surface here; treat
				// the case as undecided rather than report wrongly.
				res.Reduced = cur
				return res
			}
			cur = reduced
		}
		if !progressed {
			break
		}
	}

	// Final PO decision on whatever remains, with the same budget.
	res, _ = finishPOs(cur, opt, res, nil, nil)
	return res
}

// sweepRound SAT-checks every candidate pair once. It returns the proved
// merges and whether anything happened (a proof or a refinement) that
// makes another round worthwhile.
func sweepRound(cur *aig.AIG, classes *ec.Manager, partial *sim.Partial, opt Options, stats *Stats) ([]miter.Merge, bool) {
	solver := sat.New()
	solver.SetConflictLimit(opt.ConflictLimit)
	solver.SetStop(opt.stopped)
	enc := cnf.NewEncoder(cur, solver)
	tb := opt.traceBuf()

	var merges []miter.Merge
	progressed := false
	mergedInto := make(map[int32]bool)
	for _, pair := range classes.Pairs() {
		if opt.stopped() {
			break
		}
		if !cur.IsAnd(int(pair.Member)) {
			continue // PIs cannot be merged away
		}
		// Skip members whose representative was itself disproved and
		// re-split this round; their pair will regenerate next round.
		if mergedInto[pair.Member] {
			continue
		}
		// Model a resource blow-up building or solving this pair's query;
		// the panic unwinds to CheckMiter's recovery.
		opt.Faults.Panic(fault.HookSATOOM)
		a := aig.MakeLit(int(pair.Repr), false)
		b := aig.MakeLit(int(pair.Member), pair.Compl)
		assume := enc.XorAssumption(a, b)
		stats.SATCalls++
		switch tracedSolve(tb, "sat.pair", solver, assume) {
		case sat.Unsat:
			stats.Proved++
			progressed = true
			merges = append(merges, miter.Merge{
				Member: pair.Member,
				Target: aig.MakeLit(int(pair.Repr), pair.Compl),
			})
			mergedInto[pair.Member] = true
		case sat.Sat:
			stats.Disproved++
			progressed = true
			partial.AddPattern(sim.PatternOf(enc.ModelInputs()))
		default:
			stats.Unknown++
		}
	}
	return merges, progressed
}

// finishPOs proves or refutes each remaining non-constant PO by SAT on one
// incremental solver, in index order except that the POs in last (sorted
// PO indices) come after all others. opt.Stop ends the pass, between and
// inside the calls, and so does the budget of meter (nil: no budget); the
// POs proved before either are still merged into res.Reduced. It also
// returns last with the POs whose call ended with no answer added.
func finishPOs(cur *aig.AIG, opt Options, res Result, meter *charge, last []int) (Result, []int) {
	solver := sat.New()
	solver.SetStop(opt.stopped)
	stop := func() bool { return opt.stopped() || meter.spentUp() }
	enc := cnf.NewEncoder(cur, solver)
	tb := opt.traceBuf()

	order := make([]int, 0, cur.NumPOs())
	for i, k := 0, 0; i < cur.NumPOs(); i++ {
		if k < len(last) && last[k] == i {
			k++
			continue
		}
		order = append(order, i)
	}
	order = append(order, last...)
	stalled := slices.Clone(last)

	var merges []miter.Merge
	merged := make(map[aig.Lit]bool)
	undecided := false
	for _, i := range order {
		if stop() {
			undecided = true
			break
		}
		po := cur.PO(i)
		if po == aig.False {
			continue
		}
		if po == aig.True {
			// A constant-one PO fires under every input.
			res.Outcome = miter.NotEquivalent
			res.CEX = make([]bool, cur.NumPIs())
			res.Reduced = cur
			return res, stalled
		}
		if merged[po] {
			// An earlier PO with this exact literal already proved it
			// constant zero; a duplicate merge entry for the node would be
			// rejected wholesale. (The opposite literal still gets its
			// solve: it would be constant one, a disproof.)
			continue
		}
		// PO-constancy queries are pair checks against constant zero, so
		// they share the pair hook; this also guarantees the hook has a
		// firing opportunity on miters whose classes yield no pairs.
		opt.Faults.Panic(fault.HookSATOOM)
		res.Stats.SATCalls++
		q := enc.LitOf(po)
		solver.SetConflictLimit(meter.limit(opt.ConflictLimit))
		before := solver.Stats().Conflicts
		st := tracedSolve(tb, "sat.po", solver, q)
		meter.end(st, solver.Stats().Conflicts-before)
		switch st {
		case sat.Unsat:
			res.Stats.Proved++
			// PO is constant zero: node(po) == compl flag.
			merges = append(merges, miter.Merge{
				Member: int32(po.ID()),
				Target: aig.False.NotIf(po.IsCompl()),
			})
			merged[po] = true
		case sat.Sat:
			res.Stats.Disproved++
			res.Outcome = miter.NotEquivalent
			res.CEX = enc.ModelInputs()
			res.Reduced = cur
			return res, stalled
		default:
			res.Stats.Unknown++
			undecided = true
			if at, found := slices.BinarySearch(stalled, i); !found {
				stalled = slices.Insert(stalled, at, i)
			}
		}
	}
	if len(merges) > 0 {
		reduced, _, err := miter.Reduce(cur, merges)
		if err != nil {
			// A merge-bookkeeping bug; degrade loudly instead of silently
			// reporting undecided.
			res.Faults = append(res.Faults, fmt.Sprintf("satsweep.finish.reduce: %v", err))
			res.Reduced = cur
			return res, stalled
		}
		cur = reduced
	}
	res.Reduced = cur
	if !undecided && miter.IsProved(cur) {
		res.Outcome = miter.Equivalent
	}
	// An Unknown may be a cancelled solve rather than a budget miss: a
	// stop can land inside the final PO's solve, after the last loop-top
	// check. A missed conflict budget is not a stop.
	if undecided && opt.stopped() {
		res.Stopped = true
	}
	return res, stalled
}

// tracedSolve runs one SAT call, emitting a trace span (category "sat")
// with the verdict and the conflicts the call consumed when tb is non-nil.
func tracedSolve(tb *trace.Buf, name string, solver *sat.Solver, assumptions ...sat.Lit) sat.Status {
	if tb == nil {
		return solver.Solve(assumptions...)
	}
	before := solver.Stats().Conflicts
	sp := tb.Begin(trace.CatSAT, name)
	st := solver.Solve(assumptions...)
	sp.Arg("conflicts", solver.Stats().Conflicts-before)
	sp.Arg("status", int64(st))
	sp.End()
	return st
}

// traceBuf returns the control-track buffer when tracing is on, else nil.
func (o *Options) traceBuf() *trace.Buf {
	if o.Trace.Enabled() {
		return o.Trace.Buf(trace.ControlTrack)
	}
	return nil
}
