// Package cube implements a cube-and-conquer decomposition prover for hard
// miters: the workload class where simulation stalls refine nothing and a
// monolithic SAT call blows its conflict budget (adversarial near-miss
// miters such as Booth-vs-array multipliers).
//
// The prover picks a small cutset of internal AIG variables guided by the
// simulation signatures the sweeping flow already computes — high-entropy,
// high-fanout frontier nodes near the miter's dominator cut (see
// rankCutset) — and splits the miter's satisfiability question into 2^k
// cubes, one per polarity assignment of the cutset. Each cube is posed as
// an independent CNF instance through internal/cnf with the cutset values
// asserted as unit clauses, so the solver's level-0 propagation performs
// the constant propagation that makes the sub-instances collapse. Cubes
// are solved in parallel on a par.Device with a per-cube conflict budget;
// the first SAT cube wins (the miter is disproved, early exit), a
// timed-out cube is re-split on the next-ranked cutset variable with a
// doubled budget, and only when every cube is UNSAT is the miter proved.
//
// A SAT cube's witness is reconstructed as the cube assignment united with
// the cube-local model — concretely, the model's PI values, which the unit
// clauses already force to be consistent with the cube — and replayed
// through aig.Eval before it is ever reported; a model that fails replay
// is withdrawn as a fault, never reported as a verdict.
//
// The prover never propagates a panic: a cube whose solve panics (a real
// bug or the injected cube.solve.panic fault) is recovered into an unknown
// cube, which blocks the Equivalent verdict and degrades the run to
// Undecided — sabotage can cost an answer, never invert one.
package cube

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/cnf"
	"simsweep/internal/fault"
	"simsweep/internal/miter"
	"simsweep/internal/par"
	"simsweep/internal/sat"
	"simsweep/internal/sim"
	"simsweep/internal/trace"
)

// Fixed decomposition parameters.
const (
	// cutsetSize is k, the number of cutset variables of the initial split
	// into 2^k cubes (capped by the available internal nodes).
	cutsetSize = 4
	// maxSplitDepth bounds the re-splitting of timed-out cubes.
	maxSplitDepth = 3
	// simWords is the number of 64-pattern words of random stimulus behind
	// the cutset scoring.
	simWords = 8
)

// Options configures a decomposition run.
type Options struct {
	// Dev supplies the parallel device the cubes are solved on; nil creates
	// a default one.
	Dev *par.Device
	// Seed drives the random stimulus behind the cutset scoring.
	Seed int64
	// ConflictLimit caps the per-cube conflict budget. 0 means the final
	// re-split depth solves without a budget — the complete configuration.
	// A positive limit keeps every cube budgeted and the run may end
	// Undecided, with Stats.Unknown counting the cubes left open.
	ConflictLimit int64
	// InitialBudget is the conflict budget of a depth-0 cube (default 512);
	// each re-split depth doubles it.
	InitialBudget int64
	// Stop cancels the run cooperatively; a cancelled run returns Undecided
	// with Stopped set.
	Stop <-chan struct{}
	// Trace, when non-nil and enabled, receives cube.* spans: the cutset
	// selection and one span per solving round with its cube counts.
	Trace *trace.Tracer
	// Faults, when armed, is consulted before each cube's solve for the
	// cube.solve.panic hook — a hit panics, modelling a blow-up inside one
	// cube, and is recovered into an unknown cube. Nil-safe.
	Faults *fault.Injector
}

func (o *Options) fill() {
	if o.Dev == nil {
		o.Dev = par.NewDevice(0)
	}
	if o.InitialBudget <= 0 {
		o.InitialBudget = 512
	}
}

// stopped reports whether the caller cancelled the run.
func (o *Options) stopped() bool { return par.Stopped(o.Stop) }

// traceBuf returns the control-track buffer when tracing is on, else nil.
func (o *Options) traceBuf() *trace.Buf {
	if o.Trace.Enabled() {
		return o.Trace.Buf(trace.ControlTrack)
	}
	return nil
}

// budgetAt returns the conflict budget of a cube at the given re-split
// depth: InitialBudget doubled per depth, clamped to ConflictLimit when one
// is set, and unlimited (0) at the final depth of a complete run.
func (o *Options) budgetAt(depth int) int64 {
	if depth >= maxSplitDepth && o.ConflictLimit == 0 {
		return 0 // final depth of a complete run: no budget
	}
	b := o.InitialBudget << uint(depth)
	if o.ConflictLimit > 0 && b > o.ConflictLimit {
		b = o.ConflictLimit
	}
	return b
}

// Stats reports the work of a decomposition run.
type Stats struct {
	// CutsetSize is the number of cutset variables of the initial split.
	CutsetSize int
	// Cubes counts every cube solve attempted, re-split children included.
	Cubes int
	// Splits counts timed-out cubes that were re-split into two children.
	Splits int
	// Proved counts cubes solved UNSAT.
	Proved int
	// Unknown counts cubes still open when the run ended: out of budget at
	// the final depth, faulted, or cancelled.
	Unknown int
	// SATConflicts is the total conflicts consumed across all cube solves.
	SATConflicts int64
	// Runtime is the wall-clock time of the run.
	Runtime time.Duration
}

// Result is the outcome of CheckMiter.
type Result struct {
	Outcome miter.Outcome
	// Stopped reports that the run returned Undecided because Options.Stop
	// cancelled it.
	Stopped bool
	// CEX is a PI assignment driving a miter output to 1 (NotEquivalent).
	// It has been replayed through aig.Eval before being reported.
	CEX   []bool
	Stats Stats
	// Faults lists the internal faults the run survived (recovered cube
	// panics, invalid witnesses), oldest first. Any fault blocks the
	// Equivalent verdict: an unproved cube is uncovered input space.
	Faults []string
}

// cubeTask is one cube: a set of AIG literals asserted true, fixing the
// polarity of each cutset variable on the task's path through the split
// tree.
type cubeTask struct {
	lits []aig.Lit
}

// extended returns the task's literals plus one more, for a re-split child.
func (t cubeTask) extended(l aig.Lit) cubeTask {
	lits := make([]aig.Lit, 0, len(t.lits)+1)
	lits = append(lits, t.lits...)
	return cubeTask{lits: append(lits, l)}
}

// cubeStatus is the outcome of one cube solve. The zero value is
// cubePending — "never ran" — so a cube whose kernel chunk died before
// reaching it (a par-level worker panic) reads as open, never as proved.
type cubeStatus int

const (
	cubePending cubeStatus = iota
	cubeUnsat
	cubeSat
	cubeTimeout // budget exhausted: a re-split candidate
	cubeFaulted // solve panicked or produced an invalid witness
	cubeSkipped // another cube already won, or the run was cancelled
)

// runState is the state shared by concurrently solving cubes.
type runState struct {
	satFound atomic.Bool
	mu       sync.Mutex
	cex      []bool
	faults   []string
	confl    atomic.Int64
}

func (st *runState) addFault(msg string) {
	st.mu.Lock()
	st.faults = append(st.faults, msg)
	st.mu.Unlock()
}

// offerCEX publishes the first validated counter-example; later winners of
// other cubes are dropped (the verdict is already settled).
func (st *runState) offerCEX(cex []bool) {
	st.mu.Lock()
	if st.cex == nil {
		st.cex = cex
	}
	st.mu.Unlock()
	st.satFound.Store(true)
}

// CheckMiter decides whether the miter m is constant zero by cube-and-
// conquer decomposition. With ConflictLimit 0 the run is complete: every
// cube is eventually solved without a budget and the result is Equivalent
// or NotEquivalent (absent faults or cancellation).
//
// The run never propagates a panic: a panicking orchestration step is
// recovered into an Undecided result carrying the fault chain, and
// per-cube panics degrade only their own cube.
func CheckMiter(m *aig.AIG, opt Options) (res Result) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res = Result{
				Outcome: miter.Undecided,
				Faults:  []string{fmt.Sprintf("cube.recovered: %v", r)},
			}
		}
		res.Stats.Runtime = time.Since(start)
	}()
	res = checkMiter(m, opt)
	return res
}

func checkMiter(m *aig.AIG, opt Options) Result {
	opt.fill()
	var res Result

	// Structural shortcuts: a fully reduced miter needs no decomposition,
	// and a constant-one output is disproved by any assignment.
	if miter.IsProved(m) {
		res.Outcome = miter.Equivalent
		return res
	}
	for i := 0; i < m.NumPOs(); i++ {
		if m.PO(i) == aig.True {
			cex := make([]bool, m.NumPIs())
			if replayDistinguishes(m, cex) {
				res.Outcome = miter.NotEquivalent
				res.CEX = cex
			}
			return res
		}
	}

	// Simulation pass: the signatures both score the cutset and, when some
	// PO already toggles under random stimulus, settle the miter outright.
	partial := sim.NewPartial(opt.Dev, m.NumPIs(), simWords, opt.Seed)
	sims, err := partial.Simulate(m)
	if err != nil {
		res.Faults = append(res.Faults, fmt.Sprintf("cube.sim: %v", err))
		return res
	}
	if po, cex := partial.FindNonZeroPO(m, sims); po >= 0 {
		if replayDistinguishes(m, cex) {
			res.Outcome = miter.NotEquivalent
			res.CEX = cex
			return res
		}
		// A simulated hit that fails replay means the signatures are
		// corrupt; nothing derived from them is trustworthy.
		res.Faults = append(res.Faults, "cube.witness.invalid: simulated counter-example failed replay")
		return res
	}

	// Cutset selection: k initial variables plus one reserve per re-split
	// depth, all ranked in one pass over the signatures.
	tb := opt.traceBuf()
	var csp trace.Span
	if tb != nil {
		csp = tb.Begin(trace.CatCube, "cube.cutset")
	}
	ranked := rankCutset(m, sims, cutsetSize+maxSplitDepth)
	k := cutsetSize
	if k > len(ranked) {
		k = len(ranked)
	}
	res.Stats.CutsetSize = k
	if tb != nil {
		csp.Arg("k", int64(k))
		csp.Arg("ranked", int64(len(ranked)))
		csp.End()
	}

	// Initial split: one cube per polarity assignment of the cutset.
	tasks := make([]cubeTask, 1<<uint(k))
	for mask := range tasks {
		lits := make([]aig.Lit, k)
		for bit := 0; bit < k; bit++ {
			// The literal is asserted true: complement it when the cube
			// fixes the variable to 0.
			lits[bit] = aig.MakeLit(int(ranked[bit]), mask&(1<<uint(bit)) == 0)
		}
		tasks[mask] = cubeTask{lits: lits}
	}

	st := &runState{}
	for depth := 0; depth <= maxSplitDepth; depth++ {
		if opt.stopped() {
			res.Stopped = true
			res.Stats.Unknown += len(tasks)
			return res
		}
		budget := opt.budgetAt(depth)
		var rsp trace.Span
		if tb != nil {
			rsp = tb.Begin(trace.CatCube, "cube.round")
			rsp.Arg("depth", int64(depth))
			rsp.Arg("cubes", int64(len(tasks)))
			rsp.Arg("budget", budget)
		}
		outcomes := make([]cubeStatus, len(tasks))
		// One parallel kernel per round; each cube builds its own solver
		// and CNF, so tasks share nothing but the read-only miter and the
		// early-exit flag. A device-level chunk panic (par.worker.panic)
		// leaves its cubes cubePending; the kernel error records the fault.
		if err := opt.Dev.Launch("cube.solve", len(tasks), func(i int) {
			outcomes[i] = solveCube(m, tasks[i], budget, st, &opt)
		}); err != nil {
			st.addFault(fmt.Sprintf("cube.launch: %v", err))
		}
		res.Stats.Cubes += len(tasks)

		var next []cubeTask
		proved, timeouts := 0, 0
		for i, oc := range outcomes {
			switch oc {
			case cubeUnsat:
				proved++
			case cubeTimeout:
				timeouts++
				next = append(next, tasks[i])
			case cubePending, cubeFaulted:
				res.Stats.Unknown++
			case cubeSkipped:
				if !st.satFound.Load() {
					res.Stats.Unknown++
				}
			}
		}
		res.Stats.Proved += proved
		if tb != nil {
			rsp.Arg("proved", int64(proved))
			rsp.Arg("timeouts", int64(timeouts))
			rsp.End()
		}
		if st.satFound.Load() {
			st.mu.Lock()
			cex := st.cex
			res.Faults = append(res.Faults, st.faults...)
			st.mu.Unlock()
			res.Stats.SATConflicts = st.confl.Load()
			res.Outcome = miter.NotEquivalent
			res.CEX = cex
			return res
		}
		if len(next) == 0 {
			break
		}
		if depth == maxSplitDepth {
			// Out of depths: whatever timed out at the final budget stays
			// open.
			res.Stats.Unknown += len(next)
			break
		}
		// Re-split every timed-out cube on the next reserve variable; when
		// the ranking has no reserve left the split degenerates to a plain
		// budget escalation of the same cube.
		if idx := k + depth; idx < len(ranked) {
			v := int(ranked[idx])
			split := make([]cubeTask, 0, 2*len(next))
			for _, t := range next {
				split = append(split, t.extended(aig.MakeLit(v, false)), t.extended(aig.MakeLit(v, true)))
			}
			res.Stats.Splits += len(next)
			next = split
		}
		tasks = next
	}

	res.Stats.SATConflicts = st.confl.Load()
	st.mu.Lock()
	res.Faults = append(res.Faults, st.faults...)
	st.mu.Unlock()
	if opt.stopped() {
		res.Stopped = true
		return res
	}
	// Equivalent only when the cubes exhaust the input space: every cube
	// UNSAT, none open, none faulted. The cubes cover the space by
	// construction — each cutset variable is a function of the PIs, so any
	// assignment lands in exactly one polarity pattern.
	if res.Stats.Unknown == 0 && len(res.Faults) == 0 {
		res.Outcome = miter.Equivalent
	}
	return res
}

// solveCube solves one cube: a fresh solver, the miter's outputs asserted
// satisfiable, the cube's literals asserted as unit clauses (level-0
// constant propagation through the Tseitin encoding), and a conflict-
// budgeted solve that cooperates with cancellation and the first-SAT
// early exit. A panic (real or injected via cube.solve.panic) degrades
// only this cube.
func solveCube(m *aig.AIG, t cubeTask, budget int64, st *runState, opt *Options) (status cubeStatus) {
	defer func() {
		if r := recover(); r != nil {
			st.addFault(fmt.Sprintf("cube.solve.recovered: %v", r))
			status = cubeFaulted
		}
	}()
	if st.satFound.Load() || opt.stopped() {
		return cubeSkipped
	}
	// Model a resource blow-up inside this cube's solve; the panic unwinds
	// to this function's recovery and costs exactly one cube.
	opt.Faults.Panic(fault.HookCubePanic)

	solver := sat.New()
	solver.SetConflictLimit(budget)
	solver.SetStop(func() bool { return st.satFound.Load() || opt.stopped() })
	enc := cnf.NewEncoder(m, solver)

	// The disproof query: some miter output is 1.
	poLits := make([]sat.Lit, 0, m.NumPOs())
	for i := 0; i < m.NumPOs(); i++ {
		po := m.PO(i)
		if po == aig.False {
			continue
		}
		poLits = append(poLits, enc.LitOf(po))
	}
	if len(poLits) == 0 {
		return cubeUnsat // every output already constant zero
	}
	solver.AddClause(poLits...)
	// Constant propagation of the cube: each cutset literal as a unit
	// clause, forced at decision level 0.
	for _, l := range t.lits {
		if !solver.AddClause(enc.LitOf(l)) {
			return cubeUnsat // cube contradicts the encoding outright
		}
	}

	result := solver.Solve()
	st.confl.Add(solver.Stats().Conflicts)
	switch result {
	case sat.Unsat:
		return cubeUnsat
	case sat.Sat:
		// Witness reconstruction: the cube assignment united with the
		// cube-local model. The unit clauses force the model's PI values to
		// be consistent with the cube, so reading every PI (unencoded ones
		// default to false) yields the full assignment — which must still
		// survive replay through aig.Eval before anyone sees it.
		cex := enc.ModelInputs()
		if !replayDistinguishes(m, cex) {
			st.addFault("cube.witness.invalid: model failed aig.Eval replay")
			return cubeFaulted
		}
		st.offerCEX(cex)
		return cubeSat
	default:
		if st.satFound.Load() || opt.stopped() {
			return cubeSkipped
		}
		return cubeTimeout
	}
}

// replayDistinguishes replays a candidate counter-example through the
// miter and reports whether it drives any output to 1.
func replayDistinguishes(m *aig.AIG, cex []bool) bool {
	for _, v := range m.Eval(cex) {
		if v {
			return true
		}
	}
	return false
}
