// Package sched implements class-level engine scheduling: instead of
// picking one prover per run, every candidate equivalence class is routed
// to the prover its features fit — exhaustive simulation for narrow
// supports, conflict-limited SAT for wide or irregular classes, BDDs for
// deep structured ones — and misrouted classes escalate along a per-class
// ladder. Counter-examples found by any prover refine every pending class
// in the same round, and the provers' track record in one round (priors)
// steers the routing of the next.
package sched

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/ec"
	"simsweep/internal/fault"
	"simsweep/internal/miter"
	"simsweep/internal/par"
	"simsweep/internal/satsweep"
	"simsweep/internal/sim"
	"simsweep/internal/trace"
)

// Engine names, used for ladders, stats, priors and metrics labels.
const (
	EngineSim = "sim"
	EngineSAT = "sat"
	EngineBDD = "bdd"
)

// scoreFloor is the minimum routing score a prover must reach to earn a
// rung on a class's ladder. A class no prover scores above the floor is
// deferred: left unmerged for the final PO pass, which decides the
// outputs without paying per-pair proofs the model predicts to be
// unprofitable. Documented in DESIGN.md ("Class scheduling").
const scoreFloor = 0.25

// bddSupportCap is how far united class supports are tracked exactly.
// Exhaustive simulation pays 2^support patterns, so the sim prover's cap
// (Options.supportCap, default 14) is hard; BDD cost grows with variable
// count far more slowly on structured functions, so supports are resolved
// up to this wider cap purely to score the BDD rung honestly.
const bddSupportCap = 24

// bddWideSupport is the effective support width BDD scoring assumes for a
// class whose true united support exceeds bddSupportCap.
const bddWideSupport = 32

// Fixed sweep limits.
const (
	// maxRounds bounds the sweep-reduce iterations.
	maxRounds = 64
	// simBudgetWords caps the exhaustive simulator's table memory in
	// 64-bit words.
	simBudgetWords = 1 << 22
	// bddNodeLimit bounds each per-class BDD manager; hitting it fails the
	// attempt and escalates the class.
	bddNodeLimit = 1 << 16
)

// Options configures a scheduled sweep.
type Options struct {
	// Dev supplies the parallel device; nil creates a default one.
	Dev *par.Device
	// ConflictLimit bounds the final PO-decision SAT calls; 0 means
	// unlimited, which makes the sweep complete.
	ConflictLimit int64
	// routeConflictLimit bounds each routed per-class SAT attempt; a class
	// that exhausts it escalates instead of stalling the round (default
	// 2000). Only tests set it, as they do simWords and supportCap.
	routeConflictLimit int64
	// simWords is the number of 64-pattern words of initial random
	// stimulus (default 8).
	simWords int
	// Seed seeds the random patterns.
	Seed int64
	// supportCap is the widest class support the sim prover will
	// exhaustively enumerate (default 14, i.e. 16384 patterns).
	supportCap int
	// Force, when set to an engine name, collapses every class's ladder to
	// that single rung — the single-engine comparison rows of benchtab
	// -sched. Classes the engine cannot decide fall through to the final
	// PO pass. Unknown names leave routing adaptive.
	Force string
	// Stop, when non-nil, cancels the sweep cooperatively; a cancelled run
	// returns Undecided.
	Stop <-chan struct{}
	// Trace, when non-nil and enabled, receives one span per round with
	// the class and dispatch counts.
	Trace *trace.Tracer
	// Faults, when armed, is threaded through to the provers: the
	// satsweep.pair.oom hook fires before routed and final SAT calls,
	// sim.round.stall inside exhaustive batches, and par.worker.panic in
	// the dispatch kernels. Nil-safe.
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
	if o.supportCap <= 0 {
		o.supportCap = 14
	}
	if o.routeConflictLimit <= 0 {
		o.routeConflictLimit = 2000
	}
	switch o.Force {
	case EngineSim, EngineSAT, EngineBDD:
	default:
		o.Force = ""
	}
}

// traceBuf returns the control-track buffer when tracing is on, else nil.
func (o *Options) traceBuf() *trace.Buf {
	if o.Trace.Enabled() {
		return o.Trace.Buf(trace.ControlTrack)
	}
	return nil
}

// Result is the outcome of CheckMiter: the verdict, a PI counter-example
// when NotEquivalent, the final (possibly reduced) miter, and scheduling
// statistics.
type Result struct {
	Outcome miter.Outcome
	// Stopped reports that the sweep returned Undecided because
	// Options.Stop cancelled it.
	Stopped bool
	CEX     []bool
	Reduced *aig.AIG
	Stats   Stats
	// Faults lists the internal faults the sweep survived (recovered
	// panics, failed kernels, per-class prover blow-ups), oldest first.
	Faults []string
}

// pairState tracks one candidate pair through a round.
type pairState uint8

// Candidate pair lifecycle.
const (
	pairPending pairState = iota
	pairProved
	pairDisproved
)

// classUnit is one candidate equivalence class as a schedulable work unit:
// its pairs, its feature vector, and its private escalation ladder.
type classUnit struct {
	repr    int32
	pairs   []ec.Pair
	state   []pairState
	support []int32 // united PI support, nil when over the cap
	feat    Features
	ladder  []string
	cursor  int
}

// pendingCount returns how many pairs of the unit are still undecided.
func (u *classUnit) pendingCount() int {
	n := 0
	for _, st := range u.state {
		if st == pairPending {
			n++
		}
	}
	return n
}

// sweeper carries the per-run state shared by the rounds.
type sweeper struct {
	opt     Options
	res     *Result
	partial *sim.Partial
	ex      *sim.Exhaustive
	// prior is each engine's track record in the rounds so far, so round
	// N+1 scores the provers on what round N observed. An engine it does
	// not list reads as the zero prior.
	prior map[string]EnginePrior
	// satSpent is the run's cumulative wall clock inside per-class SAT
	// units, checked against satRunBudget by the wave fuse.
	satSpent time.Duration
	// bddSpent is the BDD counterpart, atomic because BDD units run
	// concurrently on the worker pool.
	bddSpent atomic.Int64
	stop     bool // a prover observed Options.Stop mid-dispatch
}

// CheckMiter decides whether the miter m is constant zero, routing each
// candidate class to the prover its features fit. With an unlimited final
// conflict budget the sweep is complete.
//
// The sweep never propagates a panic: a panicking round is recovered into
// an Undecided result carrying the original miter and the fault chain.
// Per-class prover faults are recovered closer to home — the class
// escalates to its next rung and only the fault chain remembers.
func CheckMiter(m *aig.AIG, opt Options) (res Result) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res = Result{
				Outcome: miter.Undecided,
				Reduced: m,
				Faults:  []string{fmt.Sprintf("sched.recovered: %v", r)},
			}
		}
		res.Stats.Runtime = time.Since(start)
	}()
	res = checkMiter(m, opt)
	return res
}

func checkMiter(m *aig.AIG, opt Options) Result {
	opt.fill()
	res := Result{Reduced: m}

	sc := &sweeper{opt: opt, res: &res, prior: make(map[string]EnginePrior)}
	sc.partial = sim.NewPartial(opt.Dev, m.NumPIs(), opt.simWords, opt.Seed)
	sc.ex = sim.NewExhaustive(opt.Dev, simBudgetWords)
	sc.ex.Trace = opt.Trace
	sc.ex.Faults = opt.Faults
	sc.ex.Stop = opt.stopped

	cur := m
	for round := 0; round < maxRounds; round++ {
		if opt.stopped() || sc.stop {
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

		sims, err := sc.partial.Simulate(cur)
		if err != nil {
			// The signatures are garbage and must not build classes or
			// disproofs. Degrade to Undecided.
			res.Faults = append(res.Faults, fmt.Sprintf("sim.partial: %v", err))
			res.Reduced = cur
			return res
		}
		if po, cex := sc.partial.FindNonZeroPO(cur, sims); po >= 0 {
			res.Outcome = miter.NotEquivalent
			res.CEX = cex
			res.Reduced = cur
			return res
		}
		classes := ec.Build(cur.NumNodes(), func(id int) []uint64 { return sims[id] }, func(id int) bool {
			return cur.IsAnd(id) || cur.IsPI(id)
		})

		merges, progressed, done := sc.scheduleRound(cur, classes, sims, round)
		if done {
			res.Reduced = cur
			return res
		}
		if len(merges) > 0 {
			reduced, _, err := miter.Reduce(cur, merges)
			if err != nil {
				// A merge-bookkeeping bug would surface here; treat the
				// case as undecided rather than report wrongly.
				res.Reduced = cur
				return res
			}
			cur = reduced
		}
		if !progressed {
			break
		}
	}

	return sc.finishPOs(cur)
}

// finishPOs runs satsweep's final PO pass on what the rounds left, under
// the final (by default unlimited) conflict budget: the completeness
// backstop for classes no rung could decide. A stop or a missed budget
// still merges the POs proved before it.
func (sc *sweeper) finishPOs(cur *aig.AIG) Result {
	opt := sc.opt
	res := *sc.res
	pr := satsweep.FinishPOs(cur, satsweep.Options{
		ConflictLimit: opt.ConflictLimit,
		Stop:          opt.Stop,
		Trace:         opt.Trace,
		Faults:        opt.Faults,
	})
	res.Outcome, res.Stopped, res.CEX, res.Reduced = pr.Outcome, pr.Stopped, pr.CEX, pr.Reduced
	res.Stats.SATCalls += pr.Stats.SATCalls
	res.Faults = append(res.Faults, pr.Faults...)
	return res
}

// scheduleRound builds the round's class units, dispatches them in waves
// along their ladders, and returns the proved merges, whether anything
// happened that makes another round worthwhile, and whether the round
// reached a terminal verdict (written into sc.res).
func (sc *sweeper) scheduleRound(cur *aig.AIG, classes *ec.Manager, sims [][]uint64, round int) ([]miter.Merge, bool, bool) {
	units := sc.buildUnits(cur, classes, sims)
	tb := sc.opt.traceBuf()
	sp := tb.Begin(trace.CatEngine, "sched.round")
	if tb != nil {
		sp.Arg("round", int64(round))
		sp.Arg("classes", int64(len(units)))
	}
	defer sp.End()
	if len(units) == 0 {
		return nil, false, false
	}
	progressed := false

	// Waves: every unit attempts its current rung; failures move the
	// cursor and the next wave retries, until no unit escalated. The +1
	// bound is paranoia — a cursor can advance at most len(ladder)-1 times.
	for wave := 0; wave < 4; wave++ {
		groups := make(map[string][]*classUnit, 3)
		for _, u := range units {
			if u.cursor < len(u.ladder) && u.pendingCount() > 0 {
				groups[u.ladder[u.cursor]] = append(groups[u.ladder[u.cursor]], u)
			}
		}
		escalated := false
		for _, engine := range [...]string{EngineSim, EngineSAT, EngineBDD} {
			g := groups[engine]
			if len(g) == 0 {
				continue
			}
			if sc.opt.stopped() {
				sc.stop = true
				return nil, progressed, false
			}
			start := time.Now()
			var atts []*attempt
			switch engine {
			case EngineSim:
				atts = sc.runSimGroup(cur, g)
			case EngineSAT:
				atts = sc.runSATGroup(cur, g)
			case EngineBDD:
				atts = sc.runBDDGroup(cur, g)
			}
			row := sc.res.Stats.engine(engine)
			row.Time += time.Since(start)
			sc.res.Stats.setEngine(engine, row)
			for i, u := range g {
				prog, esc, done := sc.apply(cur, units, u, engine, atts[i], round)
				progressed = progressed || prog
				escalated = escalated || esc
				if done {
					return nil, progressed, true
				}
			}
		}
		if !escalated {
			break
		}
	}
	var merges []miter.Merge
	for _, u := range units {
		for i, p := range u.pairs {
			if u.state[i] != pairProved {
				continue
			}
			merges = append(merges, miter.Merge{
				Member: p.Member,
				Target: aig.MakeLit(int(p.Repr), p.Compl),
			})
		}
	}
	if tb != nil {
		sp.Arg("merges", int64(len(merges)))
	}
	return merges, progressed, false
}

// apply folds one prover attempt into the unit, the stats, the learned
// priors and the shared pattern bank. It returns whether the attempt made
// progress, whether the unit escalated, and whether a counter-example
// replay decided the whole miter.
func (sc *sweeper) apply(cur *aig.AIG, units []*classUnit, u *classUnit, engine string, a *attempt, round int) (progressed, escalated, done bool) {
	st := &sc.res.Stats
	if a.parked {
		// A parking trigger retired the class's ladder so later waves skip
		// it; the final PO pass decides what its pairs would have merged.
		// No prior delta — the engine never ran.
		st.Parked++
		u.cursor = len(u.ladder)
		return false, false, false
	}
	row := st.engine(engine)
	st.SATCalls += a.satCalls
	if a.fault != "" {
		sc.res.Faults = append(sc.res.Faults, a.fault)
	}
	if a.stopped {
		sc.stop = true
	}
	for _, idx := range a.proved {
		if u.state[idx] == pairPending {
			u.state[idx] = pairProved
			row.Proved++
			progressed = true
		}
	}
	for _, idx := range a.disproved {
		if u.state[idx] == pairPending {
			u.state[idx] = pairDisproved
			row.Disproved++
			progressed = true
		}
	}
	prior := sc.prior[engine]
	prior.Attempts++
	prior.Conflicts += uint64(a.conflicts)
	if !a.failed && len(a.proved) > 0 && u.pendingCount() == 0 {
		prior.Wins++
		if st.Examples == nil {
			st.Examples = make(map[string]ClassExample)
		}
		if _, ok := st.Examples[engine]; !ok {
			st.Examples[engine] = ClassExample{
				Repr:    u.repr,
				Member:  u.pairs[a.proved[0]].Member,
				Size:    u.feat.Size,
				Support: u.feat.Support,
				Depth:   u.feat.Depth,
				Round:   round,
			}
		}
	}
	if a.failed {
		row.Failed++
		if u.cursor+1 < len(u.ladder) {
			u.cursor++
			st.Escalations++
			next := st.engine(u.ladder[u.cursor])
			next.Escalated++
			st.setEngine(u.ladder[u.cursor], next)
			escalated = true
		}
	}
	st.setEngine(engine, row)
	sc.prior[engine] = prior

	// Cross-engine sharing: every counter-example refines the next round's
	// signatures and is replayed against every still-pending pair right
	// now — a cex one prover paid for prunes the others' queues for free.
	for _, pattern := range a.cexs {
		sc.partial.AddPattern(sim.PatternOf(pattern))
		if sc.replayShared(cur, units, pattern) {
			return progressed, escalated, true
		}
	}
	return progressed, escalated, done
}

// replayShared evaluates the miter under a counter-example, refutes every
// pending pair the pattern distinguishes, and reports whether it exposes a
// non-zero PO (a terminal NotEquivalent, written into sc.res).
func (sc *sweeper) replayShared(cur *aig.AIG, units []*classUnit, pattern []bool) bool {
	val := evalNodes(cur, pattern)
	for i := 0; i < cur.NumPOs(); i++ {
		if aig.LitValue(val, cur.PO(i)) {
			sc.res.Outcome = miter.NotEquivalent
			sc.res.CEX = append([]bool(nil), pattern...)
			return true
		}
	}
	for _, u := range units {
		for i, p := range u.pairs {
			if u.state[i] != pairPending {
				continue
			}
			if val[p.Member] != (val[p.Repr] != p.Compl) {
				u.state[i] = pairDisproved
				sc.res.Stats.SharedCEX++
			}
		}
	}
	return false
}

// buildUnits turns the round's equivalence classes into schedulable units
// with features and ladders.
func (sc *sweeper) buildUnits(cur *aig.AIG, classes *ec.Manager, sims [][]uint64) []*classUnit {
	levels := cur.Levels()
	trackCap := sc.opt.supportCap
	if trackCap < bddSupportCap {
		trackCap = bddSupportCap
	}
	sups := cur.SupportsCapped(trackCap)
	var units []*classUnit
	for _, cls := range classes.Classes() {
		if len(cls) < 2 {
			continue
		}
		repr := cls[0]
		u := &classUnit{repr: repr}
		support := sups.Sets[repr]
		wide := sups.Big[repr]
		depth := int(levels[repr])
		for _, member := range cls[1:] {
			if !cur.IsAnd(int(member)) {
				continue // PIs cannot be merged away
			}
			p, ok := classes.PairOf(int(member))
			if !ok {
				continue
			}
			u.pairs = append(u.pairs, p)
			if int(levels[member]) > depth {
				depth = int(levels[member])
			}
			if !wide {
				if sups.Big[member] {
					wide = true
				} else {
					support = mergeSorted(support, sups.Sets[member])
					if len(support) > trackCap {
						wide = true
					}
				}
			}
		}
		if len(u.pairs) == 0 {
			continue
		}
		u.state = make([]pairState, len(u.pairs))
		u.feat = Features{
			Size:    len(cls),
			Support: len(support),
			Depth:   depth,
			Entropy: sigEntropy(sims[repr]),
		}
		if wide {
			u.feat.Support = -1
		} else if len(support) <= sc.opt.supportCap {
			// Only sim-enumerable supports keep the id slice; supports in
			// (supportCap, bddSupportCap] are tracked as a width for BDD
			// scoring but never get a simulation window.
			u.support = support
		}
		u.ladder = sc.rankEngines(u.feat)
		sc.res.Stats.Classes++
		sc.res.Stats.Pairs += len(u.pairs)
		if len(u.ladder) == 0 {
			sc.res.Stats.Deferred++
			continue
		}
		row := sc.res.Stats.engine(u.ladder[0])
		row.Routed++
		sc.res.Stats.setEngine(u.ladder[0], row)
		units = append(units, u)
	}
	return units
}

// rankEngines scores the provers against the class features and the
// run's priors and returns the eligible engines, best first — the unit's
// private escalation ladder. The scoring rule is documented in DESIGN.md
// ("Class scheduling"); constants there and here must agree.
func (sc *sweeper) rankEngines(f Features) []string {
	if sc.opt.Force != "" {
		return []string{sc.opt.Force}
	}
	type scored struct {
		name  string
		score float64
	}
	var ranked []scored

	if f.Support >= 0 && f.Support <= sc.opt.supportCap {
		score := 2.5 - 0.08*float64(f.Support)
		extra := f.Size - 1
		if extra > 5 {
			extra = 5
		}
		score += 0.1 * float64(extra)
		score += sc.prior[EngineSim].WinRate() - 0.5
		ranked = append(ranked, scored{EngineSim, score})
	}

	satPrior := sc.prior[EngineSAT]
	satScore := 1.2 - 0.004*float64(f.Depth) + 0.2*f.Entropy
	// Per-pair SAT cost scales with the class size (each member is its own
	// cone encoding + solve); penalise bulk so huge classes — typically the
	// constant class — defer to the final PO pass instead.
	bulk := f.Size - 1
	if bulk > 50 {
		bulk = 50
	}
	satScore -= 0.03 * float64(bulk)
	satScore += satPrior.WinRate() - 0.5
	if satPrior.AvgConflicts() >= float64(sc.opt.routeConflictLimit) {
		satScore -= 0.5 // SAT has been blowing the routed budget this run
	}
	ranked = append(ranked, scored{EngineSAT, satScore})

	// BDD cost is not exponential in support width the way exhaustive
	// enumeration is, so the support slope is gentle and the width is the
	// exactly-tracked one up to bddSupportCap; the depth term captures the
	// real BDD hazard (deep arithmetic blows the node limit).
	effSupport := float64(bddWideSupport)
	if f.Support >= 0 {
		effSupport = float64(f.Support)
	}
	bddScore := 1.1 - 0.02*effSupport - 0.004*float64(f.Depth)
	bddScore += sc.prior[EngineBDD].WinRate() - 0.5
	ranked = append(ranked, scored{EngineBDD, bddScore})

	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })
	out := make([]string, 0, len(ranked))
	for _, r := range ranked {
		if r.score < scoreFloor {
			continue // predicted unprofitable; the final PO pass is cheaper
		}
		out = append(out, r.name)
	}
	return out
}

// evalNodes evaluates every node of g under a full PI assignment and
// returns per-node values (ids are topological, so one ascending pass
// suffices).
func evalNodes(g *aig.AIG, inputs []bool) []bool {
	val := make([]bool, g.NumNodes())
	for i := 0; i < g.NumPIs(); i++ {
		val[g.PIID(i)] = inputs[i]
	}
	for id := 1; id < g.NumNodes(); id++ {
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.Fanins(id)
		val[id] = aig.LitValue(val, f0) && aig.LitValue(val, f1)
	}
	return val
}
