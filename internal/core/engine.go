package core

import (
	"fmt"
	"sort"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/cuts"
	"simsweep/internal/ec"
	"simsweep/internal/miter"
	"simsweep/internal/par"
	"simsweep/internal/sim"
	"simsweep/internal/trace"
)

// CheckMiter runs the simulation-based CEC engine on a miter. It proves
// the miter equivalent, disproves it with a counter-example, or returns
// Undecided together with the reduced miter for a downstream checker.
func CheckMiter(m *aig.AIG, cfg Config) Result { return CheckMiterStepped(m, cfg, nil) }

// Step is the step hook of CheckMiterStepped. It is called with the label
// of the step the engine just finished ("PG", then "L1", "L2", ...) and
// the current miter. A non-nil cex (a PI assignment firing a PO) disproves
// the miter. A non-nil next, which must be cur with proved equivalences
// merged, becomes the miter the run goes on with. Non-empty faults withdraw
// the call's result: they enter the run's fault chain, and the hook is not
// called again.
type Step func(after string, cur *aig.AIG) (next *aig.AIG, cex []bool, faults []string)

// CheckMiterStepped is CheckMiter with a step hook (nil: none), called at
// every step boundary of an undecided run: after the P and G phases, and
// after each L phase that merged something. The hook's time is not the engine's:
// Stats.Runtime leaves it out, and the run's core.check span is split into
// one span per stretch of engine work between hook calls.
func CheckMiterStepped(m *aig.AIG, cfg Config, step Step) Result {
	cfg.fill()
	e := &engine{cfg: &cfg, cur: m, step: step}
	if cfg.Trace.Enabled() {
		e.tb = cfg.Trace.Buf(trace.ControlTrack)
	}
	e.res.Reduced = m
	e.res.Stats.InitialAnds = miter.LiveAnds(m)
	if cfg.KeepSnapshots {
		e.res.Snapshots = make(map[string]*aig.AIG)
	}
	e.beginPart()
	e.run()
	e.endPart()
	e.res.Stats.FinalAnds = e.res.Stats.InitialAnds
	if e.res.Reduced != m {
		e.res.Stats.FinalAnds = miter.LiveAnds(e.res.Reduced)
	}
	if e.partial != nil {
		e.res.PatternBank = e.partial.ExportBank()
	}
	e.res.KernelProfile = cfg.Dev.Profile()
	return e.res
}

// beginPart opens the core.check span and the clock of the next stretch of
// engine work: the whole run without a step hook, else the work up to the
// next hook call.
func (e *engine) beginPart() {
	e.part = e.tb.Begin(trace.CatEngine, "core.check")
	e.partStart = time.Now()
	e.partRounds, e.partWords = e.res.Stats.Rounds, e.res.Stats.WordsSimulated
	if e.tb != nil {
		e.part.Arg("initial_ands", int64(miter.LiveAnds(e.cur)))
	}
}

// endPart closes the current stretch and adds its time to Stats.Runtime.
// Its span carries the AND count at its end and the rounds and words it
// simulated, so the spans of a split run sum to the Stats totals.
func (e *engine) endPart() {
	e.res.Stats.Runtime += time.Since(e.partStart)
	if e.tb != nil {
		e.part.Arg("final_ands", int64(miter.LiveAnds(e.cur)))
		e.part.Arg("rounds", int64(e.res.Stats.Rounds-e.partRounds))
		e.part.Arg("words_simulated", e.res.Stats.WordsSimulated-e.partWords)
	}
	e.part.End()
}

type engine struct {
	cfg     *Config
	cur     *aig.AIG
	partial *sim.Partial
	ex      *sim.Exhaustive
	res     Result
	decided bool
	tb      *trace.Buf // control-track trace buffer (nil: tracing off)

	// step is the step hook (nil: none). part is the core.check span of the
	// current stretch of engine work, which started at partStart with the
	// Stats counters at partRounds and partWords.
	step       Step
	part       trace.Span
	partStart  time.Time
	partRounds int
	partWords  int64

	// lastPassProved drives Config.AdaptivePasses: per-pass proof counts
	// of the previous L phase (nil before the first phase).
	lastPassProved map[cuts.Pass]int

	// Watchdog state of the phase currently executing. wdStop is closed by
	// the wall-clock timer when Config.PhaseBudget elapses and is polled at
	// the same points as Config.Stop; wdWork accumulates submitted window
	// work against Config.phaseWorkBudget; phaseAborted records that the
	// phase observed a trip (or a survivable fault) and abandoned work —
	// only then is the run marked Degraded, so a phase that completes
	// exactly at its budget is not spuriously penalised. curPhase labels
	// fault-chain entries.
	wdStop       chan struct{}
	wdWork       int64
	phaseAborted bool
	curPhase     string
}

// faultf appends one entry to the run's fault chain and marks the result
// degraded.
func (e *engine) faultf(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	e.res.Faults = append(e.res.Faults, msg)
	e.res.Degraded = true
	e.cfg.logf("fault: %s", msg)
}

// abortPhase records a survivable fault that invalidates the remainder of
// the current phase. The engine finishes the phase's bookkeeping (verdicts
// already established stay applied — they came from healthy batches), skips
// the remaining phases and settles Undecided, leaving the decision to the
// downstream backend. Only the first fault per phase is recorded.
func (e *engine) abortPhase(format string, args ...interface{}) {
	if e.phaseAborted {
		return
	}
	e.phaseAborted = true
	e.faultf(format, args...)
}

// stopped reports cooperative cancellation: the caller's Stop channel or
// the current phase's wall-clock watchdog. Observing a watchdog trip aborts
// the phase (and thereby degrades the run); merely letting the timer fire
// after the phase's last polling point does not.
func (e *engine) stopped() bool {
	if e.cfg.stopped() {
		return true
	}
	if par.Stopped(e.wdStop) {
		e.abortPhase("core.watchdog: phase %s exceeded wall-clock budget %v", e.curPhase, e.cfg.PhaseBudget)
		return true
	}
	return false
}

// addWork charges the estimated effort of a window against the phase work
// budget and reports whether the phase may still submit it.
func (e *engine) addWork(work int64) bool {
	if e.cfg.phaseWorkBudget <= 0 {
		return true
	}
	e.wdWork += work
	if e.wdWork <= e.cfg.phaseWorkBudget {
		return true
	}
	e.abortPhase("core.watchdog: phase %s exceeded work budget %d node·words", e.curPhase, e.cfg.phaseWorkBudget)
	return false
}

// runPhase executes one phase under the watchdog and reports whether it
// completed without aborting. The wall-clock timer is armed only for the
// duration of the phase; its channel is polled through e.stopped at the
// same points that honour Config.Stop.
func (e *engine) runPhase(kind PhaseKind, fn func()) bool {
	e.phaseAborted = false
	e.wdWork = 0
	e.curPhase = kind.String()
	if e.cfg.PhaseBudget > 0 {
		ch := make(chan struct{})
		timer := time.AfterFunc(e.cfg.PhaseBudget, func() { close(ch) })
		e.wdStop = ch
		defer func() {
			timer.Stop()
			e.wdStop = nil
		}()
	}
	fn()
	return !e.phaseAborted
}

func (e *engine) run() {
	if miter.IsProved(e.cur) {
		e.res.Outcome = miter.Equivalent
		return
	}
	e.ex = sim.NewExhaustive(e.cfg.Dev, e.cfg.MemBudgetWords)
	e.ex.SliceWork = e.cfg.SimSliceWork
	e.ex.Trace = e.cfg.Trace
	e.ex.Faults = e.cfg.Faults
	// Round-boundary cancellation: e.stopped observes watchdog trips (and
	// records the degradation), so a phase stuck inside a multi-round batch
	// is cancelled at the next round instead of running to completion.
	e.ex.Stop = e.stopped
	e.partial = sim.NewPartial(e.cfg.Dev, e.cur.NumPIs(), e.cfg.SimWords, e.cfg.Seed)
	e.partial.Trace = e.cfg.Trace

	// An aborted phase (watchdog trip or survivable fault) skips the
	// remaining phases: proved merges so far stay applied, the run settles
	// Undecided+Degraded and the downstream backend takes over. A settled
	// run skips them too. The snapshots of skipped phases repeat the last
	// one, so a miter that P proves reads as proved after PG and PGL.
	more := e.runPhase(PhaseP, e.phaseP) && !e.settled()
	e.snapshot("P")
	more = more && e.runPhase(PhaseG, e.phaseG) && !e.settled()
	e.snapshot("PG")
	more = more && e.ask("PG")
	for phase := 1; more && phase <= e.cfg.MaxLocalPhases; phase++ {
		merged := 0
		// merged == 0 is the fixpoint: the structure, and with it the
		// cuts, did not change.
		more = e.runPhase(PhaseL, func() { merged = e.phaseL() }) && !e.settled() &&
			merged > 0 && e.ask(fmt.Sprintf("L%d", phase))
	}
	e.snapshot("PGL")
	e.finish()
}

// settled reports that the run needs no further phase: a PO fired, every
// PO is proved, or the caller stopped the run.
func (e *engine) settled() bool {
	return e.decided || miter.IsProved(e.cur) || e.cfg.stopped()
}

// ask calls the step hook at a step boundary, outside the engine's clock
// and spans, and reports whether the run goes on.
func (e *engine) ask(after string) bool {
	if e.step == nil {
		return true
	}
	e.endPart()
	next, cex, faults := e.step(after, e.cur)
	e.beginPart()
	switch {
	case len(faults) > 0:
		for _, f := range faults {
			e.faultf("%s", f)
		}
		e.step = nil
	case cex != nil:
		e.disprove(cex)
	case next != nil:
		e.cur = next
	}
	return !e.settled()
}

// finish settles the final outcome when no disproof was found.
func (e *engine) finish() {
	e.res.Reduced = e.cur
	if e.decided {
		return
	}
	if miter.IsProved(e.cur) {
		e.res.Outcome = miter.Equivalent
		return
	}
	// Undecided: distinguish a cancelled run from a genuine fixpoint.
	e.res.Stopped = e.cfg.stopped()
}

func (e *engine) snapshot(label string) {
	if e.res.Snapshots == nil || e.decided {
		return
	}
	clean, _ := miter.Clean(e.cur)
	e.res.Snapshots[label] = clean
}

// endPhaseSpan closes a phase trace span with the attributes of the Figure 6
// breakdown, taken verbatim from the PhaseStat so the trace and
// Result.Phases always agree.
func (e *engine) endPhaseSpan(sp *trace.Span, stat *PhaseStat) {
	sp.Arg("checked", int64(stat.Checked))
	sp.Arg("proved", int64(stat.Proved))
	sp.Arg("disproved", int64(stat.Disproved))
	sp.Arg("ands", int64(stat.AndsAfter))
	sp.End()
}

// disprove finalises a NotEquivalent verdict from a PI assignment.
func (e *engine) disprove(cex []bool) {
	e.res.Outcome = miter.NotEquivalent
	e.res.CEX = cex
	e.decided = true
}

// windowWork estimates the simulation effort of a window in node·word
// units — the budget metric of maxWindowWork.
func windowWork(w *sim.Window) int64 {
	return int64(w.TTWords()) * int64(w.NumSlots())
}

// buildWithin materialises spec's window if its work stays within
// maxWindowWork. A spec whose table alone, TTWords × (inputs+1), is over
// the cap is refused before its cone is built. It returns nil when the
// window is over the cap (over true) or its inputs do not cut its roots.
func (e *engine) buildWithin(spec sim.Spec) (w *sim.Window, over bool) {
	if int64(sim.TTWords(len(spec.Inputs)))*int64(len(spec.Inputs)+1) > maxWindowWork {
		return nil, true
	}
	w, err := sim.BuildWindow(e.cur, spec)
	if err != nil {
		return nil, false
	}
	if windowWork(w) > maxWindowWork {
		return nil, true
	}
	return w, false
}

// checkChunked merges the specs (when ks > 0), materialises their windows
// and exhaustively checks them in batches of about MemBudgetWords/2 slots
// (at least 1024), a cap on a batch's bookkeeping since each simulation
// task has a table of its own, returning combined per-pair verdicts
// (indexed like pairs). A merged window over the per-window work budget is
// retried unmerged; a single window still over budget is dropped (its
// pairs stay unresolved), which realises the engine's computational-budget
// control on a CPU.
func (e *engine) checkChunked(pairs []sim.Pair, specs []sim.Spec, ks int) sim.Result {
	combined := sim.Result{
		Equal: make([]bool, len(pairs)),
		CEXs:  make([]*sim.CEX, len(pairs)),
	}
	merged := specs
	// Original (unmerged) spec of each pair, for the over-budget retry.
	var origByPair map[int32]sim.Spec
	if ks > 0 {
		merged = sim.MergeSpecs(specs, ks)
		origByPair = make(map[int32]sim.Spec, len(specs))
		for _, s := range specs {
			for _, pi := range s.PairIdx {
				origByPair[pi] = s
			}
		}
	}

	slotCap := e.cfg.MemBudgetWords / 2
	if slotCap < 1024 {
		slotCap = 1024
	}
	var batch []*sim.Window
	slots := 0
	flush := func() {
		if len(batch) == 0 {
			return
		}
		r := e.ex.CheckBatch(e.cur, pairs, batch)
		if r.Err != nil {
			// The batch's kernels panicked: its verdicts were withdrawn
			// (all Equal false, no CEXs), so merging them below is a
			// no-op. Abort the phase; verdicts from earlier, healthy
			// batches stay valid.
			e.abortPhase("sim.exhaustive: %v", r.Err)
		}
		for _, w := range batch {
			for _, pi := range w.PairIdx {
				combined.Equal[pi] = r.Equal[pi]
				if r.CEXs[pi] != nil {
					combined.CEXs[pi] = r.CEXs[pi]
				}
			}
		}
		combined.Rounds += r.Rounds
		combined.WordsSimulated += r.WordsSimulated
		batch = batch[:0]
		slots = 0
	}
	enqueue := func(w *sim.Window) {
		if !e.addWork(windowWork(w)) {
			return // phase work budget exhausted: drop the window
		}
		batch = append(batch, w)
		slots += w.NumSlots()
		if slots >= slotCap {
			flush()
		}
	}
	for _, spec := range merged {
		if e.stopped() || e.phaseAborted {
			break
		}
		w, over := e.buildWithin(spec)
		switch {
		case w != nil:
			enqueue(w)
		case over && origByPair != nil && len(spec.PairIdx) > 1:
			// Merging pushed the window over budget: fall back to the
			// pairs' individual windows. A single over-budget job is
			// unsimulatable on a CPU and stays unresolved.
			for _, pi := range spec.PairIdx {
				if ow, _ := e.buildWithin(origByPair[pi]); ow != nil {
					enqueue(ow)
				}
			}
		}
	}
	flush()
	e.res.Stats.Rounds += combined.Rounds
	e.res.Stats.WordsSimulated += combined.WordsSimulated
	return combined
}

// phaseP proves simulatable miter POs constant zero in terms of their
// global functions — the one-shot miter proof when every PO is small. It
// opens with one random sweep: a PO that fires under the pattern bank
// disproves the miter before any exhaustive window is built.
func (e *engine) phaseP() {
	start := time.Now()
	stat := PhaseStat{Kind: PhaseP}
	sp := e.tb.Begin(trace.CatPhase, "P")
	defer func() {
		stat.Duration = time.Since(start)
		stat.AndsAfter = e.cur.NumAnds()
		e.res.Phases = append(e.res.Phases, stat)
		e.endPhaseSpan(&sp, &stat)
		e.cfg.logf("phase P: checked=%d proved=%d disproved=%d ands=%d (%v)",
			stat.Checked, stat.Proved, stat.Disproved, stat.AndsAfter, stat.Duration.Round(time.Millisecond))
	}()

	if e.resimulate() == nil {
		if e.decided {
			// The firing PO is the one hypothesis this phase decided.
			stat.Checked, stat.Disproved = 1, 1
		}
		return // decided or faulted
	}

	sup := e.cur.SupportsCapped(e.cfg.KP)
	allSimulatable := true
	for i := 0; i < e.cur.NumPOs(); i++ {
		d := e.cur.PO(i).ID()
		if d != 0 && sup.Size(d) < 0 {
			allSimulatable = false
			break
		}
	}
	limit := e.cfg.Kp
	if allSimulatable {
		limit = e.cfg.KP
	}

	type hypo struct {
		driver int32
		compl  bool
	}
	seen := make(map[hypo]bool)
	var pairs []sim.Pair
	var specs []sim.Spec
	for i := 0; i < e.cur.NumPOs(); i++ {
		po := e.cur.PO(i)
		d := po.ID()
		if d == 0 {
			continue // constant zero; a constant one fired the sweep above
		}
		sz := sup.Size(d)
		if sz < 0 || sz > limit {
			continue
		}
		h := hypo{int32(d), po.IsCompl()}
		if seen[h] {
			continue
		}
		seen[h] = true
		pairs = append(pairs, sim.Pair{A: 0, B: int32(d), Compl: po.IsCompl()})
		specs = append(specs, sim.Spec{
			Roots:   []int32{int32(d)},
			Inputs:  sup.Set(d),
			PairIdx: []int32{int32(len(pairs) - 1)},
		})
	}
	stat.Checked = len(pairs)
	if len(pairs) == 0 {
		return
	}
	if e.cfg.DisableWindowMerge {
		limit = 0
	}
	res := e.checkChunked(pairs, specs, limit)

	var merges []miter.Merge
	for i, p := range pairs {
		if res.Equal[i] {
			stat.Proved++
			m := miter.Merge{Member: p.B, Target: aig.False.NotIf(p.Compl)}
			merges = append(merges, m)
			e.res.Journal = append(e.res.Journal, ProvedPair{
				Member: m.Member, Target: m.Target, Phase: PhaseP,
				Inputs: len(specs[i].Inputs),
			})
			continue
		}
		if cex := res.CEXs[i]; cex != nil {
			// A PO that can be driven to one disproves the miter.
			stat.Disproved++
			e.disprove(cex.Vector(sim.PIIndex(e.cur), e.cur.NumPIs()))
			return
		}
	}
	e.reduce(merges)
}

// reduce applies proved merges and rebuilds the miter.
func (e *engine) reduce(merges []miter.Merge) {
	if len(merges) == 0 {
		return
	}
	reduced, _, err := miter.Reduce(e.cur, merges)
	if err != nil {
		// A bookkeeping bug must never produce a wrong verdict; keep
		// the unreduced miter and leave the run undecided.
		return
	}
	e.cur = reduced
	if miter.IsDisprovedStructurally(e.cur) {
		e.disprove(make([]bool, e.cur.NumPIs()))
	}
}

// resimulate refreshes partial simulation, disproving the miter when a PO
// fires under the pattern bank, and returns the per-node signatures. It
// returns nil both when the run was decided (a PO fired) and when the sweep
// faulted — garbage signatures must never reach FindNonZeroPO, where they
// could fabricate a disproof — so callers bail out on nil.
func (e *engine) resimulate() [][]uint64 {
	sims, err := e.partial.Simulate(e.cur)
	if err != nil {
		e.abortPhase("sim.partial: %v", err)
		return nil
	}
	if po, in := e.partial.FindNonZeroPO(e.cur, sims); po >= 0 {
		e.disprove(in)
		return nil
	}
	return sims
}

func (e *engine) buildEC(sims [][]uint64) *ec.Manager {
	return ec.Build(e.cur.NumNodes(), func(id int) []uint64 { return sims[id] }, func(id int) bool {
		return e.cur.IsAnd(id) || e.cur.IsPI(id)
	})
}

// phaseG checks candidate pairs with small global supports exhaustively,
// with window merging, collecting counter-examples to refine the classes.
func (e *engine) phaseG() {
	start := time.Now()
	stat := PhaseStat{Kind: PhaseG}
	sp := e.tb.Begin(trace.CatPhase, "G")
	defer func() {
		stat.Duration = time.Since(start)
		stat.AndsAfter = e.cur.NumAnds()
		e.res.Phases = append(e.res.Phases, stat)
		e.endPhaseSpan(&sp, &stat)
		e.cfg.logf("phase G: checked=%d proved=%d disproved=%d ands=%d (%v)",
			stat.Checked, stat.Proved, stat.Disproved, stat.AndsAfter, stat.Duration.Round(time.Millisecond))
	}()

	sims := e.resimulate()
	if sims == nil {
		return // decided or faulted
	}
	classes := e.buildEC(sims)
	sup := e.cur.SupportsCapped(e.cfg.Kg)

	var pairs []sim.Pair
	var specs []sim.Spec
	for _, p := range classes.Pairs() {
		if !e.cur.IsAnd(int(p.Member)) {
			continue
		}
		var inputs []int32
		if p.Repr == 0 {
			if sup.Big(int(p.Member)) {
				continue
			}
			inputs = sup.Set(int(p.Member))
		} else {
			u, ok := sup.Union(int(p.Repr), int(p.Member))
			if !ok {
				continue
			}
			inputs = u
		}
		roots := []int32{p.Member}
		if p.Repr != 0 {
			roots = append(roots, p.Repr)
			sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
		}
		pairs = append(pairs, sim.Pair{A: p.Repr, B: p.Member, Compl: p.Compl})
		specs = append(specs, sim.Spec{Roots: roots, Inputs: inputs, PairIdx: []int32{int32(len(pairs) - 1)}})
	}
	stat.Checked = len(pairs)
	if len(pairs) == 0 {
		return
	}
	ks := e.cfg.Kg
	if e.cfg.DisableWindowMerge {
		ks = 0
	}
	res := e.checkChunked(pairs, specs, ks)

	var merges []miter.Merge
	piIndex := sim.PIIndex(e.cur)
	for i, p := range pairs {
		if res.Equal[i] {
			stat.Proved++
			m := miter.Merge{Member: p.B, Target: aig.MakeLit(int(p.A), p.Compl)}
			merges = append(merges, m)
			e.res.Journal = append(e.res.Journal, ProvedPair{
				Member: m.Member, Target: m.Target, Phase: PhaseG,
				Inputs: len(specs[i].Inputs),
			})
			continue
		}
		if cex := res.CEXs[i]; cex != nil {
			stat.Disproved++
			e.partial.AddPattern(cex.Pattern(piIndex))
		}
	}
	e.reduce(merges)
}

// phaseL runs one local function checking phase: three cut generation and
// checking passes over the same structure, then one reduction. It returns
// the number of merges applied.
func (e *engine) phaseL() int {
	start := time.Now()
	stat := PhaseStat{Kind: PhaseL}
	sp := e.tb.Begin(trace.CatPhase, "L")
	defer func() {
		stat.Duration = time.Since(start)
		stat.AndsAfter = e.cur.NumAnds()
		e.res.Phases = append(e.res.Phases, stat)
		e.endPhaseSpan(&sp, &stat)
		e.cfg.logf("phase L: checked=%d proved=%d ands=%d cutnodes=%d cutcands=%d cutlaunches=%d (%v)",
			stat.Checked, stat.Proved, stat.AndsAfter,
			stat.CutNodes, stat.CutCandidates, stat.CutLaunches,
			stat.Duration.Round(time.Millisecond))
	}()

	sims := e.resimulate()
	if sims == nil {
		return 0 // decided or faulted
	}
	classes := e.buildEC(sims)
	if classes.TotalCandidates() == 0 {
		return 0
	}

	var merges []miter.Merge
	proved := make(map[int32]bool)

	passes := e.cfg.LocalPasses
	if passes == nil {
		passes = cuts.Passes
	}
	passProved := make(map[cuts.Pass]int, len(passes))
	// One generator serves every pass of the phase: the structure and the
	// classes are fixed until the reduction at the end, so the passes
	// share the enumeration schedule, the scratch pools and the arenas.
	// Created lazily because AdaptivePasses may skip all passes.
	var gen *cuts.Generator
	defer func() {
		if gen == nil {
			return
		}
		gs := gen.Stats()
		stat.CutNodes = gs.Nodes
		stat.CutCandidates = gs.Candidates
		stat.CutLaunches = gs.Launches
	}()
	for _, pass := range passes {
		if e.stopped() || e.phaseAborted {
			break
		}
		if e.cfg.AdaptivePasses && e.lastPassProved != nil && e.lastPassProved[pass] == 0 {
			continue // pass was ineffective on this case last phase (§V)
		}
		provedBefore := stat.Proved
		if gen == nil {
			gen = cuts.NewGenerator(e.cur, e.cfg.Dev, cuts.Config{
				K:            e.cfg.Kl,
				C:            e.cfg.C,
				Budget:       e.cfg.CutBudget,
				NoSimilarity: e.cfg.DisableSimilarity,
			})
			gen.Trace = e.cfg.Trace
		}

		var pairs []sim.Pair
		var specs []sim.Spec
		flush := func() {
			if len(pairs) == 0 {
				return
			}
			stat.Checked += len(pairs)
			// Window merging is disabled for local checking (small
			// windows make it unprofitable, §III-B3).
			res := e.checkChunked(pairs, specs, 0)
			for i, p := range pairs {
				if res.Equal[i] && !proved[p.B] {
					proved[p.B] = true
					stat.Proved++
					m := miter.Merge{Member: p.B, Target: aig.MakeLit(int(p.A), p.Compl)}
					merges = append(merges, m)
					e.res.Journal = append(e.res.Journal, ProvedPair{
						Member: m.Member, Target: m.Target, Phase: PhaseL,
						Inputs: len(specs[i].Inputs),
					})
				}
			}
			pairs = pairs[:0]
			specs = specs[:0]
		}

		err := gen.Run(pass, classes, func(pc cuts.PairCuts) {
			if proved[pc.Pair.Member] || !e.cur.IsAnd(int(pc.Pair.Member)) {
				return
			}
			n := len(pc.Cuts)
			if n > maxCutsPerPair {
				n = maxCutsPerPair
			}
			for _, cut := range pc.Cuts[:n] {
				roots := []int32{pc.Pair.Member}
				if pc.Pair.Repr != 0 {
					roots = append(roots, pc.Pair.Repr)
					sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
				}
				pairs = append(pairs, sim.Pair{A: pc.Pair.Repr, B: pc.Pair.Member, Compl: pc.Pair.Compl})
				specs = append(specs, sim.Spec{
					Roots:   roots,
					Inputs:  cut.Leaves,
					PairIdx: []int32{int32(len(pairs) - 1)},
				})
			}
			// The constant-sized common-cut buffer of Algorithm 2:
			// local checking interleaves with enumeration.
			if len(pairs) >= cutBufferCap {
				flush()
			}
		})
		flush()
		if err != nil {
			// Cuts emitted before the failure were checked normally; the
			// pass is merely incomplete.
			e.abortPhase("cuts.generate: %v", err)
		}
		passProved[pass] = stat.Proved - provedBefore
	}
	e.lastPassProved = passProved
	e.reduce(merges)
	return len(merges)
}
