package sim

import (
	"math/bits"
	"sync"

	"simsweep/internal/aig"
	"simsweep/internal/fault"
	"simsweep/internal/par"
	"simsweep/internal/trace"
	"simsweep/internal/tt"
)

// Pair is a candidate equivalence checked by exhaustive simulation: the
// hypothesis B ≡ A ⊕ Compl over the node ids A and B. A may be 0, the
// constant-false node, for candidate-constant checks (including miter PO
// checking, where the hypothesis is PO ≡ 0).
type Pair struct {
	A, B  int32
	Compl bool
}

// CEX is a counter-example disproving a pair: an assignment to the window
// inputs under which the two roots differ. Index is the truth-table bit
// index the mismatch was found at.
type CEX struct {
	Inputs []int32
	Values []bool
	Index  uint64
}

// PIIndex maps the PI node ids of g to PI positions: the lookup that turns
// a window counter-example over g into PI assignments (CEX.Pattern,
// CEX.Vector).
func PIIndex(g *aig.AIG) map[int32]int {
	m := make(map[int32]int, g.NumPIs())
	for i := 0; i < g.NumPIs(); i++ {
		m[int32(g.PIID(i))] = i
	}
	return m
}

// Pattern converts the counter-example into a partial-simulator pattern:
// one assignment per window input that is a PI (piIndex from PIIndex). PIs
// outside the window stay unassigned, so AddPattern fills them randomly.
func (c *CEX) Pattern(piIndex map[int32]int) []PIValue {
	out := make([]PIValue, 0, len(c.Inputs))
	for j, id := range c.Inputs {
		if idx, ok := piIndex[id]; ok {
			out = append(out, PIValue{Index: idx, Value: c.Values[j]})
		}
	}
	return out
}

// Vector expands the counter-example into a full assignment of numPIs
// inputs (piIndex from PIIndex); PIs outside the window are false.
func (c *CEX) Vector(piIndex map[int32]int, numPIs int) []bool {
	in := make([]bool, numPIs)
	for j, id := range c.Inputs {
		if idx, ok := piIndex[id]; ok {
			in[idx] = c.Values[j]
		}
	}
	return in
}

// Result reports the verdicts of a CheckBatch call, indexed like the pair
// slice passed in. Equal[i] is true when the truth tables matched over the
// window; CEXs[i] is non-nil when they did not. The interpretation is the
// caller's: for global-function windows a mismatch is a disproof, for
// local-function windows it is inconclusive (satisfiability don't cares).
type Result struct {
	Equal []bool
	CEXs  []*CEX

	// Rounds is the number of simulation rounds executed; WordsSimulated
	// counts node·word units of work, for the benchmark harness.
	Rounds         int
	WordsSimulated int64

	// Err is non-nil when a simulation kernel failed (a recovered worker
	// panic). The batch's verdicts are then conservative: every Equal entry
	// is false and every CEX is nil, so a faulted batch can never prove or
	// disprove a pair — it only loses progress.
	Err error
	// Stopped reports that the Exhaustive.Stop callback cancelled the batch
	// between rounds. As with Err, every verdict is withdrawn: a cancelled
	// batch proves and disproves nothing.
	Stopped bool
}

// Exhaustive is the exhaustive simulator (Algorithm 1). BudgetWords is the
// paper's M in 64-bit words: the entry size E is chosen on the fly as the
// largest power of two such that E·N ≤ M for N total slots, and simulation
// proceeds in rounds over truth-table word ranges [rE, (r+1)E). M bounds
// the words one round simulates, not memory: unlike the paper's batch-wide
// table of E words per slot in global memory, every task simulates in a
// table of its own (task-local tables below).
//
// Parallelism is organised around the cross-window dimension: each round
// dispatches one kernel whose tasks are whole windows (windows are
// independent, so no inter-window barrier exists), and a window whose
// slot·word work exceeds SliceWork is split along the truth-table word
// dimension so a single huge window still saturates the device. A task
// covers only its window's own table: a window whose table is shorter than
// the round's E words simulates it once, not E/TTWords copies. Inside a
// task, nodes simulate in window order, which is topological, and each
// pair is compared as soon as both of its roots are simulated, so a task
// stops at the last root of the pairs still alive. A slice runs to that
// point whatever its sibling slices find, so slicing and the worker count
// change neither the counter-examples nor the words simulated.
//
// A task's table holds its window's slots over the task's own word range
// only, row by row, and comes from a package-level pool sized for the
// slice budget. No value crosses tasks or rounds: a task seeds its inputs,
// simulates its nodes and compares only slots it wrote, so no table is
// ever cleared. The per-batch bookkeeping comes from a package-level pool
// too, so checkers that live for one engine run share warm buffers.
type Exhaustive struct {
	Dev         *par.Device
	BudgetWords int
	// SliceWork approximates the slot·word work of one dispatched task;
	// windows above it are split along the word dimension. A non-positive
	// value selects the built-in default.
	SliceWork int
	// Trace, when non-nil and enabled, receives one span per CheckBatch
	// (windows, pairs, slots, entry words, rounds) and one per simulation
	// round (tasks dispatched, word-sliced task fan-out). Costs one atomic
	// load per batch when disabled.
	Trace *trace.Tracer
	// Faults, when armed, is consulted once per simulation round for the
	// sim.round.stall hook (a hit sleeps the control goroutine for the
	// hook's delay, provoking the engine's phase watchdog). Nil-safe.
	Faults *fault.Injector
	// Stop, when non-nil, is polled at every round boundary; a true return
	// cancels the batch, withdrawing every verdict (Result.Stopped). The
	// engine wires its watchdog-aware cancellation check in here, so a
	// phase stuck inside a multi-round batch is still cancellable.
	Stop func() bool
}

// defaultSliceWork is the per-task slot·word granularity above which a
// window is sliced along the truth-table word dimension.
const defaultSliceWork = 1 << 15

// NewExhaustive returns a checker over dev with the given round budget M in
// words (a non-positive budget selects 1<<22 words).
func NewExhaustive(dev *par.Device, budgetWords int) *Exhaustive {
	if budgetWords <= 0 {
		budgetWords = 1 << 22
	}
	return &Exhaustive{Dev: dev, BudgetWords: budgetWords}
}

// winPair is the per-window precomputation of one candidate pair.
type winPair struct {
	pi    int32 // index into the batch pair slice
	slotA int32 // window-local slot of root A; -1 for constant zero
	slotB int32 // window-local slot of root B
	ready int32 // window nodes that must simulate before comparing
	compl bool
	dead  bool // refuted in an earlier resolution step
}

// winState is the per-window precomputation for a batch.
type winState struct {
	win     *Window
	nIn     int32
	ttWords int32
	fan     []int32   // per node: two fanins as local slot<<1 | compl
	pairs   []winPair // sorted by ascending ready point
	alive   int32     // unresolved pairs (owned by the resolution step)
}

// simTask is one dispatched unit of a round: a window (or a word-range
// slice of a large window). Each task is executed by exactly one goroutine
// in a table of its own, so neither the table nor its mismatch buffer needs
// synchronisation; verdicts are applied in a sequential resolution step
// after the launch, in task order, which keeps results deterministic under
// parallel execution.
type simTask struct {
	st        *winState
	t0, t1    int32 // word range within the round's [0, E) segment
	sliced    bool
	mism      []mismatch
	simulated int64 // slot·word units actually simulated
}

// mismatch records the first differing word/bit a task found for a pair.
type mismatch struct {
	lp  int32 // index into winState.pairs
	t   int32 // word offset within the round segment
	bit int8
}

// batchScratch holds the reusable buffers of one CheckBatch call.
type batchScratch struct {
	slot   []int32 // dense node-id -> window-local slot map
	fan    []int32
	wpairs []winPair
	states []winState
	tasks  []simTask
}

// batchPool recycles per-batch bookkeeping across checkers: the engine
// makes one checker per run, so a pool inside the checker would never
// outlive one check.
var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func putScratch(sc *batchScratch) {
	// Drop object references so pooled buffers do not pin windows or
	// mismatch buffers from the previous batch.
	clear(sc.states[:cap(sc.states)])
	clear(sc.tasks[:cap(sc.tasks)])
	batchPool.Put(sc)
}

// tableWords is the size of a pooled task table: twice the default slice
// budget, which holds a whole unsliced window (work ≤ SliceWork) and any
// slice of a sliced one (at most about SliceWork plus one row).
const tableWords = 2 * defaultSliceWork

// tablePool recycles task tables (*[]uint64) across tasks, rounds, batches
// and checkers. A task needing more than its table holds replaces it with
// a larger one, which goes back to the pool in its place.
var tablePool = sync.Pool{New: func() any {
	t := make([]uint64, tableWords)
	return &t
}}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// CheckBatch exhaustively checks all pairs over their windows. Each
// window's PairIdx entries index into pairs. Both roots of every pair must
// be inputs or nodes of the window (or the constant node 0).
func (e *Exhaustive) CheckBatch(g *aig.AIG, pairs []Pair, windows []*Window) Result {
	res := Result{
		Equal: make([]bool, len(pairs)),
		CEXs:  make([]*CEX, len(pairs)),
	}
	// A pair is "equal" when its window survives all rounds without a
	// mismatch; pairs not referenced by any window stay false.
	for _, w := range windows {
		for _, pi := range w.PairIdx {
			res.Equal[pi] = true
		}
	}
	if len(windows) == 0 {
		return res
	}

	sc := batchPool.Get().(*batchScratch)
	defer putScratch(sc)

	totalSlots, totalNodes, totalPairs := 0, 0, 0
	maxTT := 1
	for _, w := range windows {
		totalSlots += w.NumSlots()
		totalNodes += len(w.Nodes)
		totalPairs += len(w.PairIdx)
		if tw := w.TTWords(); tw > maxTT {
			maxTT = tw
		}
	}
	if totalSlots == 0 {
		totalSlots = 1
	}

	// Entry size E: the largest power of two with E·N ≤ M, clamped to
	// [1, maxTT] (line 2 of Algorithm 1).
	E := 1
	for E*2*totalSlots <= e.BudgetWords && E*2 <= maxTT {
		E *= 2
	}

	// Per-window setup, sequential: the dense slot scratch maps node ids
	// to window-local slots. Entries are overwritten window by window;
	// every id consulted for a window was written for that same window
	// first, so no clearing between windows is needed.
	slot := growI32(sc.slot, g.NumNodes())
	sc.slot = slot
	fan := growI32(sc.fan, 2*totalNodes)
	sc.fan = fan
	if cap(sc.wpairs) < totalPairs {
		sc.wpairs = make([]winPair, totalPairs)
	}
	wpairs := sc.wpairs[:totalPairs]
	if cap(sc.states) < len(windows) {
		sc.states = make([]winState, len(windows))
	}
	states := sc.states[:len(windows)]

	fo, po := 0, 0
	for wi, w := range windows {
		st := &states[wi]
		*st = winState{
			win:     w,
			nIn:     int32(len(w.Inputs)),
			ttWords: int32(w.TTWords()),
			alive:   int32(len(w.PairIdx)),
		}
		for j, id := range w.Inputs {
			slot[id] = int32(j)
		}
		for j, id := range w.Nodes {
			slot[id] = st.nIn + int32(j)
		}
		st.fan = fan[fo : fo+2*len(w.Nodes)]
		for j, id := range w.Nodes {
			f0, f1 := g.Fanins(int(id))
			c0, c1 := int32(0), int32(0)
			if f0.IsCompl() {
				c0 = 1
			}
			if f1.IsCompl() {
				c1 = 1
			}
			st.fan[2*j] = slot[f0.ID()]<<1 | c0
			st.fan[2*j+1] = slot[f1.ID()]<<1 | c1
		}
		fo += 2 * len(w.Nodes)
		st.pairs = wpairs[po : po+len(w.PairIdx)]
		for k, pi := range w.PairIdx {
			p := pairs[pi]
			wp := &st.pairs[k]
			*wp = winPair{pi: pi, slotB: slot[p.B], slotA: -1, compl: p.Compl}
			if r := wp.slotB - st.nIn + 1; r > wp.ready {
				wp.ready = r
			}
			if p.A != 0 {
				wp.slotA = slot[p.A]
				if r := wp.slotA - st.nIn + 1; r > wp.ready {
					wp.ready = r
				}
			}
		}
		sortPairsByReady(st.pairs)
		po += len(w.PairIdx)
	}

	sliceWork := e.SliceWork
	if sliceWork <= 0 {
		sliceWork = defaultSliceWork
	}

	// Tracing is off on the common path: tb stays nil and every emit
	// below is a no-op costing a nil check.
	var tb *trace.Buf
	if e.Trace.Enabled() {
		tb = e.Trace.Buf(trace.ControlTrack)
	}
	bsp := tb.Begin(trace.CatSim, "exhaustive.batch")

	rounds := (maxTT + E - 1) / E
	tasks := sc.tasks[:0]
	for r := 0; r < rounds; r++ {
		// An injected round stall parks the control goroutine here; the
		// poll right after is the batch's cancellation point, so a watchdog
		// or client cancel arriving during the stall (or a previous round)
		// aborts the batch instead of waiting out the remaining dispatches.
		e.Faults.Stall(fault.HookSimStall)
		if e.Stop != nil && e.Stop() {
			for i := range res.Equal {
				res.Equal[i] = false
				res.CEXs[i] = nil
			}
			res.Stopped = true
			break
		}
		// Build the round's task list: one task per active window, or
		// several word-range slices for windows above the slice budget.
		// A window's words in the round are its whole table when that is
		// shorter than E (both are powers of two, so such a window is
		// active in round 0 alone), else E.
		tasks = tasks[:0]
		for wi := range states {
			st := &states[wi]
			if st.alive <= 0 || int(st.ttWords) <= r*E {
				continue
			}
			span := min(E, int(st.ttWords))
			nslices := 1
			if work := st.win.NumSlots() * span; work > sliceWork && span > 1 {
				nslices = min(span, (work+sliceWork-1)/sliceWork)
			}
			if nslices == 1 {
				tasks = append(tasks, simTask{st: st, t0: 0, t1: int32(span)})
				continue
			}
			step := (span + nslices - 1) / nslices
			for t0 := 0; t0 < span; t0 += step {
				t1 := min(t0+step, span)
				tasks = append(tasks, simTask{st: st, t0: int32(t0), t1: int32(t1), sliced: true})
			}
		}
		if len(tasks) == 0 {
			break
		}
		res.Rounds++

		rsp := tb.Begin(trace.CatSim, "exhaustive.round")
		if tb != nil {
			sliced := 0
			for i := range tasks {
				if tasks[i].sliced {
					sliced++
				}
			}
			rsp.Arg("round", int64(r))
			rsp.Arg("words", int64(E))
			rsp.Arg("tasks", int64(len(tasks)))
			rsp.Arg("sliced_tasks", int64(sliced))
		}

		// One launch per round over independent window tasks — the
		// cross-window dimension needs no inter-window barrier, and the
		// word-level and level-wise dimensions run inside each task.
		rr := r
		err := e.Dev.LaunchChunked("exhaustive.window", len(tasks), func(lo, hi int) {
			tp := tablePool.Get().(*[]uint64)
			defer tablePool.Put(tp)
			for i := lo; i < hi; i++ {
				tk := &tasks[i]
				need := tk.st.win.NumSlots() * int(tk.t1-tk.t0)
				if len(*tp) < need {
					*tp = make([]uint64, need)
				}
				tk.run((*tp)[:need], E, rr)
			}
		})
		rsp.End()
		if err != nil {
			// A kernel panicked: the per-task mismatch buffers are
			// unreliable. Withdraw every verdict — Equal entries were
			// optimistically true and are now unproven, and recorded
			// mismatches may be garbage — and report the fault.
			for i := range res.Equal {
				res.Equal[i] = false
				res.CEXs[i] = nil
			}
			res.Err = err
			sc.tasks = tasks
			bsp.End()
			return res
		}

		// Sequential resolution in task order (windows ascending, word
		// ranges ascending): verdicts and counter-examples are identical
		// to a serial sweep regardless of execution interleaving.
		for i := range tasks {
			tk := &tasks[i]
			res.WordsSimulated += tk.simulated
			st := tk.st
			for _, m := range tk.mism {
				wp := &st.pairs[m.lp]
				if wp.dead {
					continue
				}
				wp.dead = true
				st.alive--
				res.Equal[wp.pi] = false
				res.CEXs[wp.pi] = st.decodeCEX(uint64(rr*E+int(m.t))*64 + uint64(m.bit))
			}
		}
	}
	sc.tasks = tasks
	if tb != nil {
		bsp.Arg("windows", int64(len(windows)))
		bsp.Arg("pairs", int64(len(pairs)))
		bsp.Arg("entry_words", int64(E))
		bsp.Arg("rounds", int64(res.Rounds))
	}
	bsp.End()
	return res
}

// run seeds, simulates and compares one window (or word slice) for one
// round in loc, the task's own table: slot s, round word t at
// loc[s*W + t-t0] for the task's W = t1-t0 words. Nodes simulate in
// ascending slot order; each pair compares at its ready point, and
// simulation stops as soon as no undecided pair needs further node values.
func (tk *simTask) run(loc []uint64, E, r int) {
	st := tk.st
	nIn := int(st.nIn)
	t0, W := int(tk.t0), int(tk.t1-tk.t0)

	// Seed projection-table segments at the window inputs (Algorithm 1
	// line 9): generated arithmetically, never materialised in full.
	for j := 0; j < nIn; j++ {
		row := loc[j*W : (j+1)*W]
		for t := range row {
			row[t] = tt.ProjectionWord(j, r*E+t0+t)
		}
	}

	// uncompared counts the pairs still awaiting their ready point;
	// maxReady is the node prefix the surviving pairs actually need.
	uncompared := 0
	maxReady := int32(0)
	for k := range st.pairs {
		if !st.pairs[k].dead {
			uncompared++
			if st.pairs[k].ready > maxReady {
				maxReady = st.pairs[k].ready
			}
		}
	}
	next := 0
	uncompared -= tk.compareReady(loc, &next, 0)

	nodesDone := 0
	for j := 0; j < int(maxReady) && uncompared > 0; j++ {
		f0 := st.fan[2*j]
		f1 := st.fan[2*j+1]
		s0 := int(f0>>1) * W
		s1 := int(f1>>1) * W
		dst := loc[(nIn+j)*W : (nIn+j+1)*W]
		a, b := loc[s0:s0+W], loc[s1:s1+W]
		m0 := -uint64(f0 & 1)
		m1 := -uint64(f1 & 1)
		for t := range dst {
			dst[t] = (a[t] ^ m0) & (b[t] ^ m1)
		}
		nodesDone++
		if next < len(st.pairs) && st.pairs[next].ready <= int32(j+1) {
			uncompared -= tk.compareReady(loc, &next, int32(j+1))
		}
	}
	tk.simulated = int64(nIn+nodesDone) * int64(W)
}

// compareReady compares every not-yet-compared pair whose ready point has
// been reached and returns how many live pairs it compared. Mismatches are
// recorded locally.
func (tk *simTask) compareReady(loc []uint64, next *int, ready int32) int {
	st := tk.st
	compared := 0
	for *next < len(st.pairs) && st.pairs[*next].ready <= ready {
		lp := *next
		*next++
		wp := &st.pairs[lp]
		if wp.dead {
			continue
		}
		compared++
		t, bit, mism := tk.comparePair(loc, wp)
		if !mism {
			continue
		}
		tk.mism = append(tk.mism, mismatch{lp: int32(lp), t: int32(t), bit: int8(bit)})
	}
	return compared
}

// comparePair scans the pair's root rows of the task's table and returns
// the first mismatching word offset within the round segment and its bit,
// if any. A slotA of -1 compares against constant zero.
func (tk *simTask) comparePair(loc []uint64, wp *winPair) (int, int, bool) {
	t0, W := int(tk.t0), int(tk.t1-tk.t0)
	mask := uint64(0)
	if wp.compl {
		mask = ^uint64(0)
	}
	b := loc[int(wp.slotB)*W : int(wp.slotB+1)*W]
	if wp.slotA < 0 {
		for t, v := range b {
			if v ^= mask; v != 0 {
				return t0 + t, bits.TrailingZeros64(v), true
			}
		}
		return 0, 0, false
	}
	a := loc[int(wp.slotA)*W : int(wp.slotA+1)*W]
	for t, v := range b {
		if v ^= a[t] ^ mask; v != 0 {
			return t0 + t, bits.TrailingZeros64(v), true
		}
	}
	return 0, 0, false
}

// sortPairsByReady is a stable insertion sort (pair lists are tiny, and
// stability keeps resolution order deterministic).
func sortPairsByReady(ps []winPair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j-1].ready > ps[j].ready; j-- {
			ps[j-1], ps[j] = ps[j], ps[j-1]
		}
	}
}

// decodeCEX converts a truth-table bit index into an input assignment: bit
// j of the index is the value of window input j (the projection-table
// convention).
func (st *winState) decodeCEX(index uint64) *CEX {
	k := len(st.win.Inputs)
	if k < 64 {
		index &= (uint64(1) << uint(k)) - 1
	}
	cex := &CEX{
		Inputs: append([]int32(nil), st.win.Inputs...),
		Values: make([]bool, k),
		Index:  index,
	}
	for j := 0; j < k; j++ {
		cex.Values[j] = (index>>uint(j))&1 == 1
	}
	return cex
}
