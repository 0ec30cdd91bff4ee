// Package satsweep implements the SAT sweeping baseline the paper compares
// against: the algorithm of ABC's &cec checker. Random simulation sorts the
// miter's nodes into candidate equivalence classes; one sweep in ascending
// node-id order, a topological order, then builds a FRAIG of the miter's
// live cone, proving or refuting each node against the first older member
// of its class on one incremental SAT solver, and every counter-example is
// simulated at once to refine the classes for the nodes after it; a PO pass
// on the FRAIG asks whatever PO the sweep left open.
package satsweep

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
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

// Options configures a check.
type Options struct {
	// Dev supplies the parallel device for simulation; nil creates a
	// default one for the sweep's simulation.
	Dev *par.Device
	// ConflictLimit bounds each SAT call (ABC's -C); 0 means unlimited.
	ConflictLimit int64
	// simWords is the number of 64-pattern words of random stimulus
	// (default 32). Only tests set it.
	simWords int
	// Seed seeds the random patterns.
	Seed int64
	// Stop, when non-nil, cancels the check cooperatively (checked
	// between SAT calls and inside them); a cancelled run returns
	// Undecided.
	Stop <-chan struct{}
	// SeedBank prepends an upstream simulator's pattern bank (per PI
	// index) to the random stimulus — the paper's §V "EC transferring":
	// pairs already disproved upstream never reach the SAT solver.
	SeedBank [][]uint64
	// Trace, when non-nil and enabled, receives one span per SAT call
	// with the solver status and the conflicts the call consumed.
	Trace *trace.Tracer
	// Faults, when armed, is consulted before each SAT query, of a pair or
	// of a PO, for the satsweep.pair.oom hook — a hit panics, modelling a
	// resource blow-up, and is recovered by CheckMiter and CheckPOs into
	// an Undecided degraded result. Nil-safe.
	Faults *fault.Injector
}

// stopped reports whether the caller cancelled the check.
func (o *Options) stopped() bool { return par.Stopped(o.Stop) }

func (o *Options) fill() {
	if o.simWords <= 0 {
		o.simWords = 32
	}
}

// Calls counts SAT calls by their answer.
type Calls struct {
	Asked, Proved, Disproved, Unknown int
}

func (c *Calls) add(d Calls) {
	c.Asked += d.Asked
	c.Proved += d.Proved
	c.Disproved += d.Disproved
	c.Unknown += d.Unknown
}

func (c *Calls) count(st sat.Status) {
	c.Asked++
	switch st {
	case sat.Unsat:
		c.Proved++
	case sat.Sat:
		c.Disproved++
	default:
		c.Unknown++
	}
}

// Stats reports the work of a check.
type Stats struct {
	// POs counts the queries of a PO against constant zero, Pairs the
	// sweep's queries of a node against an older member of its class.
	POs, Pairs Calls
	// Structural counts the nodes the sweep merged with no SAT call:
	// strashed onto their fanins' images, they landed on an older node's
	// image.
	Structural int
	Runtime    time.Duration
}

// SATCalls returns the number of SAT calls.
func (s Stats) SATCalls() int { return s.POs.Asked + s.Pairs.Asked }

// Result is the outcome of a check: the verdict, a PI counter-example
// when NotEquivalent, the final (possibly reduced) miter, and statistics.
type Result struct {
	Outcome miter.Outcome
	// Stopped reports that the check returned Undecided because
	// Options.Stop cancelled it.
	Stopped bool
	CEX     []bool
	Reduced *aig.AIG
	Stats   Stats
	// Faults lists the internal faults the check survived (recovered
	// panics, failed simulation kernels), oldest first. A non-empty chain
	// with an Undecided outcome means the check degraded rather than
	// genuinely exhausting its budget.
	Faults []string
}

// CheckMiter decides whether the miter m is constant zero: one sweep
// builds a FRAIG of m's live cone (see sweeper) and a PO pass on the FRAIG
// asks every PO the sweep left open. With an unlimited conflict budget the
// check is complete: it returns Equivalent or NotEquivalent. With a budget
// it may return Undecided, and Reduced is m with every equivalence the
// check proved merged.
//
// The check never propagates a panic: a panicking query (a genuine bug, an
// injected satsweep.pair.oom fault, or a blow-up in the solver) is
// recovered into an Undecided result carrying the original miter and the
// fault chain, so a crashing backend costs a verdict, not the process.
func CheckMiter(m *aig.AIG, opt Options) (res Result) {
	defer recovered(m, time.Now(), &res)
	opt.fill()
	res, _ = sweepPOs(m, &opt, nil, nil)
	return res
}

// CheckPOs is hybrid's PO-level SAT attempt, under a budget of unanswered
// conflicts. It asks the non-constant POs of m on one incremental solver,
// each call limited to its share of the budget (the budget over the open
// POs), and at the first call that runs out of its share it sweeps the
// cones of the POs still open, as CheckMiter does, and asks what is left on
// the FRAIG under what is left of the budget. Every call's conflict limit
// is also capped by the budget not yet charged, and by opt.ConflictLimit
// when that is set, and only a call that ends with no answer is charged,
// with the conflicts it spent: a proof or a model costs nothing. So the
// charge never exceeds the budget. Once it reaches the budget the attempt
// asks nothing more (budget <= 0 asks nothing at all) and ends Undecided,
// and Reduced is m with every equivalence proved so far merged: the POs
// proved, and the nodes the sweep merged. No clock enters the charge: the
// attempt's outcome depends only on its arguments. Panics are recovered as
// in CheckMiter.
//
// The POs in stalled (sorted PO indices) are asked after every other open
// PO, so a PO that an earlier attempt could not answer does not eat the
// budget of the POs behind it. CheckPOs returns the unanswered conflicts
// charged and stalled with the POs added whose call ended with no answer
// and which are still open; PO positions survive miter.Reduce, so the set
// carries over to the next attempt on Reduced.
func CheckPOs(m *aig.AIG, opt Options, budget int64, stalled []int) (res Result, unanswered int64, stalledAfter []int) {
	defer recovered(m, time.Now(), &res)
	opt.fill()
	meter := &charge{budget: budget}
	res, stalledAfter = attempt(m, &opt, meter, stalled)
	return res, meter.spent, stalledAfter
}

// charge meters a budgeted attempt in conflicts: the conflicts of the calls
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

// recovered turns a panic of a check of m into an Undecided result that
// carries m and the fault, and stamps the check's runtime. Defer it.
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

// attempt is CheckPOs: the PO pass on m under per-call shares, then, if a
// call ran out of its share, the sweep and the PO pass on the FRAIG.
func attempt(m *aig.AIG, opt *Options, meter *charge, stalled []int) (Result, []int) {
	res := Result{Reduced: m}
	if meter.spentUp() {
		return res, stalled
	}
	open := 0
	for i := 0; i < m.NumPOs(); i++ {
		if m.PO(i).ID() != 0 {
			open++
		}
	}
	share := max(1, meter.budget/int64(max(open, 1)))
	p := newProver(m, opt, meter)
	pass := p.poPass(m, poOrder(m, stalled), func(l aig.Lit) aig.Lit { return l }, func(l aig.Lit) int32 { return int32(l.ID()) }, share, &res.Stats)
	if !settle(m, pass, &res) || res.Outcome != miter.Undecided || !pass.ranOut || meter.spentUp() || opt.stopped() {
		res.Stopped = res.Outcome == miter.Undecided && opt.stopped()
		return res, addStalled(stalled, pass.unanswered, res.Reduced)
	}
	pos := res.Stats.POs
	res, unanswered := sweepPOs(res.Reduced, opt, meter, stalled)
	res.Stats.POs.add(pos)
	return res, addStalled(stalled, append(pass.unanswered, unanswered...), res.Reduced)
}

// sweepPOs sweeps the live cone of m into a FRAIG and then asks the POs
// still open on it, in index order but for the POs in stalled, which come
// last. It also returns the POs whose call in the PO pass ended with no
// answer.
func sweepPOs(m *aig.AIG, opt *Options, meter *charge, stalled []int) (Result, []int) {
	res := Result{Reduced: m}
	if miter.IsProved(m) {
		res.Outcome = miter.Equivalent
		return res, nil
	}
	if opt.stopped() {
		res.Stopped = true
		return res, nil
	}
	s, cex, err := newSweeper(m, opt, meter, &res.Stats)
	if err != nil {
		// A simulation kernel failed; its signatures are garbage and
		// must not build classes or disproofs. Degrade to Undecided.
		res.Faults = append(res.Faults, fmt.Sprintf("sim.partial: %v", err))
		return res, nil
	}
	if cex != nil {
		res.Outcome, res.CEX = miter.NotEquivalent, cex
		return res, nil
	}
	cex, done := s.sweep()
	if cex != nil {
		res.Outcome, res.CEX = miter.NotEquivalent, cex
		return res, nil
	}
	var pass poResult
	if done {
		pass = s.poPass(m, poOrder(m, stalled), s.image, func(l aig.Lit) int32 { return s.owner[l.ID()] }, 0, &res.Stats)
	}
	pass.merges = append(s.merges, pass.merges...)
	settle(m, pass, &res)
	res.Stopped = res.Outcome == miter.Undecided && opt.stopped()
	return res, pass.unanswered
}

// poResult is what a PO pass, or a sweep and its PO pass, found: the
// proved merges of miter nodes, a counter-example, the POs whose call ended
// with no answer, and whether the pass stopped before it asked every PO.
type poResult struct {
	merges     []miter.Merge
	cex        []bool
	unanswered []int
	ranOut     bool
}

// settle applies a pass's result to res: a counter-example disproves m,
// else Reduced is m with the pass's merges applied, Equivalent when every
// PO is then constant zero. It reports false when the merges did not
// apply.
func settle(m *aig.AIG, pass poResult, res *Result) bool {
	res.Reduced = m
	if pass.cex != nil {
		res.Outcome, res.CEX = miter.NotEquivalent, pass.cex
		return true
	}
	if len(pass.merges) > 0 {
		reduced, _, err := miter.Reduce(m, pass.merges)
		if err != nil {
			// A merge-bookkeeping bug; degrade loudly instead of
			// silently reporting undecided.
			res.Faults = append(res.Faults, fmt.Sprintf("satsweep.reduce: %v", err))
			return false
		}
		res.Reduced = reduced
	}
	if miter.IsProved(res.Reduced) {
		res.Outcome = miter.Equivalent
	}
	return true
}

// addStalled returns stalled with the POs of asked added that cur still
// leaves open, sorted.
func addStalled(stalled, asked []int, cur *aig.AIG) []int {
	out := slices.Clone(stalled)
	for _, i := range asked {
		if cur.PO(i).ID() == 0 {
			continue
		}
		if at, found := slices.BinarySearch(out, i); !found {
			out = slices.Insert(out, at, i)
		}
	}
	return out
}

// poOrder lists the PO indices of m in index order, except that the POs in
// last (sorted) come after all others.
func poOrder(m *aig.AIG, last []int) []int {
	order := make([]int, 0, m.NumPOs())
	for i, k := 0, 0; i < m.NumPOs(); i++ {
		if k < len(last) && last[k] == i {
			k++
			continue
		}
		order = append(order, i)
	}
	return append(order, last...)
}

// prover asks queries over one graph on one incremental solver in cnf's
// &cec encoding, each call's decisions confined to the query's cone
// (sat.Solver.SolveIn), and charges the calls that end with no answer to
// its meter (nil: none).
type prover struct {
	opt    *Options
	meter  *charge
	tb     *trace.Buf
	solver *sat.Solver
	enc    *cnf.Encoder
	scope  []int   // the decision scope of the last query
	pis    []int32 // the PI nodes of the last query's cone
}

func newProver(g *aig.AIG, opt *Options, meter *charge) *prover {
	s := sat.New()
	s.SetStop(opt.stopped)
	return &prover{opt: opt, meter: meter, tb: opt.traceBuf(), solver: s, enc: cnf.NewEncoder(g, s)}
}

// ask asks whether the literals a and b of the prover's graph can differ,
// under the meter's limit capped by share (0: no cap), and counts the call
// in calls. A constant b makes it a query of a alone.
func (p *prover) ask(name string, a, b aig.Lit, share int64, calls *Calls) sat.Status {
	// Model a resource blow-up building or solving this query; the panic
	// unwinds to the recovery of CheckMiter or CheckPOs.
	p.opt.Faults.Panic(fault.HookSATOOM)
	var q sat.Lit
	if b.ID() == 0 {
		q = p.enc.LitOf(a.NotIf(b.IsCompl()))
		p.scope, p.pis = p.enc.Cone(p.scope[:0], p.pis[:0], a)
	} else {
		q = p.enc.XorAssumption(a, b)
		p.scope, p.pis = p.enc.Cone(p.scope[:0], p.pis[:0], a, b)
		p.scope = append(p.scope, q.Var())
	}
	limit := p.meter.limit(p.opt.ConflictLimit)
	if share > 0 && (limit <= 0 || share < limit) {
		limit = share
	}
	p.solver.SetConflictLimit(limit)
	before := p.solver.Stats().Conflicts
	var sp trace.Span
	if p.tb != nil {
		sp = p.tb.Begin(trace.CatSAT, name)
	}
	st := p.solver.SolveIn(p.scope, q)
	spent := p.solver.Stats().Conflicts - before
	if p.tb != nil {
		sp.Arg("conflicts", spent)
		sp.Arg("status", int64(st))
		sp.End()
	}
	p.meter.end(st, spent)
	calls.count(st)
	return st
}

// poPass asks the POs of m in order on p: lit maps a literal of m to the
// prover's graph, and member maps a literal of that graph to a node of m
// that the literal's node is the image of, which a proof merges to a
// constant. Each call is capped
// by share (0: no cap), and the pass stops at the first call that ends with
// no answer when share is set; it stops as well when the meter is spent or
// the caller stops. A model is a counter-example and ends the pass.
func (p *prover) poPass(m *aig.AIG, order []int, lit func(aig.Lit) aig.Lit, member func(aig.Lit) int32, share int64, stats *Stats) poResult {
	var out poResult
	asked := make(map[aig.Lit]bool)
	for _, i := range order {
		l := lit(m.PO(i))
		if l == aig.False || asked[l] {
			// Proved, or an earlier PO with this exact literal already
			// asked it. (The opposite literal still gets its call: it
			// is constant one if the first was proved, a disproof.)
			continue
		}
		if l == aig.True {
			// A constant-one PO fires under every input.
			out.cex = make([]bool, m.NumPIs())
			return out
		}
		if p.meter.spentUp() || p.opt.stopped() {
			out.ranOut = true
			return out
		}
		asked[l] = true
		switch p.ask("sat.po", l, aig.False, share, &stats.POs) {
		case sat.Unsat:
			// The node of l is constant: l.compl, and so is the node of
			// m that member maps it to.
			out.merges = append(out.merges, miter.Merge{
				Member: member(l),
				Target: aig.False.NotIf(l.IsCompl()),
			})
		case sat.Sat:
			out.cex = p.enc.ModelInputs()
			return out
		default:
			out.unanswered = append(out.unanswered, i)
			if share > 0 {
				out.ranOut = true
				return out
			}
		}
	}
	return out
}

// traceBuf returns the control-track buffer when tracing is on, else nil.
func (o *Options) traceBuf() *trace.Buf {
	if o.Trace.Enabled() {
		return o.Trace.Buf(trace.ControlTrack)
	}
	return nil
}

// sweeper builds a FRAIG of a miter's live cone, the cones of its
// non-constant POs, in ascending node-id order. Each AND is strashed onto
// its fanins' images in the FRAIG. When that lands on an existing node the
// AND merges with the node's owner, the older node it was made for, with
// no SAT call. Otherwise the AND is asked against the first older member
// of its class, the nodes that agree with it on the pattern bank up to
// complement, and a proof merges it, a model adds a pattern to the bank
// and the next agreeing member is asked, and a call with no answer, or no
// agreeing member, leaves the AND its own image and makes it a member of
// its class. The node made for an AND that a proof merged stays in the
// FRAIG, owned by that AND, so an AND that lands on it merges with it and
// through it with the member (miter.Reduce follows such chains).
//
// The bank is the random words (the seed bank first) and one pattern per
// counter-example. Each counter-example is simulated through the live cone
// as it arrives, so it splits the classes of every node after it, and a
// counter-example that fires a PO ends the sweep NotEquivalent.
type sweeper struct {
	*prover // over f
	m       *aig.AIG
	f       *aig.AIG
	stats   *Stats

	img   []aig.Lit // miter node -> its image, a literal of f
	owner []int32   // node of f -> the node of m it was made the image of
	live  []int32   // the ANDs of m's live cone, ascending

	// The pattern bank. Of the random words each node keeps only key, a
	// hash of the words complemented so that the first bit is zero, and
	// flip, whether that complemented them: a class is a key, and two
	// nodes of one key count as agreeing on the random words (a hash
	// collision of nodes that differ costs one SAT call that refutes them,
	// never a merge). cex holds, for each word of counter-example
	// patterns, each node's word, and in the PIs' bits of that word; lanes
	// counts the patterns of the last word, whose unused lanes are all
	// zero.
	key     []uint64
	flip    []bool
	cex     [][]uint64
	in      [][]uint64
	lanes   int
	rng     *rand.Rand
	classes map[uint64][]int32 // key -> members, ascending

	merges []miter.Merge
}

// newSweeper simulates m's random bank and sets up the FRAIG with m's PIs,
// and the constant and the PIs as the first members of their classes. It
// returns a pattern of the bank instead when one fires a PO of m.
func newSweeper(m *aig.AIG, opt *Options, meter *charge, stats *Stats) (*sweeper, []bool, error) {
	n := m.NumNodes()
	live := make([]bool, n)
	for i := 0; i < m.NumPOs(); i++ {
		live[m.PO(i).ID()] = true
	}
	ands := 0
	for id := n - 1; id > 0; id-- {
		if live[id] && m.IsAnd(id) {
			f0, f1 := m.Fanins(id)
			live[f0.ID()], live[f1.ID()] = true, true
			ands++
		}
	}
	live[0] = true
	f := aig.NewSized(m.NumPIs() + 2*ands + 1)
	s := &sweeper{
		m:       m,
		f:       f,
		stats:   stats,
		img:     make([]aig.Lit, n),
		owner:   make([]int32, 1, m.NumPIs()+2*ands+1),
		live:    make([]int32, 0, ands),
		key:     make([]uint64, n),
		flip:    make([]bool, n),
		rng:     rand.New(rand.NewSource(opt.Seed + 1)),
		classes: make(map[uint64][]int32),
	}
	if cex, err := s.simulate(opt, live); cex != nil || err != nil {
		return nil, cex, err
	}
	s.join(0)
	// The FRAIG's PI i is node i+1: refine relies on it.
	for i := 0; i < m.NumPIs(); i++ {
		id := m.PIID(i)
		s.img[id] = f.AddPI()
		s.owner = append(s.owner, int32(id))
		if live[id] {
			s.join(int32(id))
		}
	}
	for id := 1; id < n; id++ {
		if live[id] && m.IsAnd(id) {
			s.live = append(s.live, int32(id))
		}
	}
	s.prover = newProver(f, opt, meter)
	return s, nil, nil
}

// image returns the FRAIG literal of the miter literal l.
func (s *sweeper) image(l aig.Lit) aig.Lit { return s.img[l.ID()].NotIf(l.IsCompl()) }

// bankBlock is the number of random words the sweep simulates at once.
const bankBlock = 8

// simulate gives every live node its key and flip over the random bank,
// opt.simWords words after the seed bank, simulated bankBlock words at a
// time so that only one block of every node's words is ever held. It
// returns a pattern of the bank that fires a PO of the miter, if any.
func (s *sweeper) simulate(opt *Options, live []bool) ([]bool, error) {
	dev := opt.Dev
	if dev == nil {
		dev = par.NewDevice(0)
		defer dev.Close()
	}
	for i := range s.key {
		s.key[i] = 14695981039346656037
	}
	for b := 0; b*bankBlock < opt.simWords; b++ {
		partial := sim.NewPartial(dev, s.m.NumPIs(), min(bankBlock, opt.simWords-b*bankBlock), opt.Seed+int64(b))
		if b == 0 && opt.SeedBank != nil {
			partial.ImportBank(opt.SeedBank)
		}
		sigs, err := partial.Simulate(s.m)
		if err != nil {
			return nil, err
		}
		if cex := fired(s.m, sigs); cex != nil {
			return cex, nil
		}
		for id, words := range sigs {
			if !live[id] {
				continue
			}
			if b == 0 {
				s.flip[id] = words[0]&1 == 1
			}
			mask := -uint64(boolBit(s.flip[id]))
			h := s.key[id]
			for _, w := range words {
				h = (h ^ (w ^ mask)) * 1099511628211
				h ^= h >> 29
			}
			s.key[id] = h
		}
	}
	return nil, nil
}

// fired returns a pattern of the bank whose per-node words are sigs under
// which a PO of m is one, or nil.
func fired(m *aig.AIG, sigs [][]uint64) []bool {
	for i := 0; i < m.NumPOs(); i++ {
		po := m.PO(i)
		for w, word := range sigs[po.ID()] {
			if v := word ^ -uint64(po&1); v != 0 {
				lane := uint(bits.TrailingZeros64(v))
				cex := make([]bool, m.NumPIs())
				for i := range cex {
					cex[i] = sigs[m.PIID(i)][w]>>lane&1 == 1
				}
				return cex
			}
		}
	}
	return nil
}

// sweep runs the sweep over the live cone. It returns a counter-example
// when a model fired a PO, and done false when the meter ran out or the
// caller stopped the sweep before it reached every node.
func (s *sweeper) sweep() (cex []bool, done bool) {
	for _, id := range s.live {
		f0, f1 := s.m.Fanins(int(id))
		nodes := s.f.NumNodes()
		lit := s.f.And(s.image(f0), s.image(f1))
		if lit.ID() < nodes {
			s.stats.Structural++
			s.merge(id, aig.MakeLit(int(s.owner[lit.ID()]), lit.IsCompl()))
			continue
		}
		s.img[id] = lit
		s.owner = append(s.owner, id)
		for {
			target, ok := s.candidate(id)
			if !ok {
				s.join(id)
				break
			}
			if s.meter.spentUp() || s.opt.stopped() {
				return nil, false
			}
			st := s.ask("sat.pair", lit, s.image(target), 0, &s.stats.Pairs)
			if st == sat.Unsat {
				s.merge(id, target)
				break
			}
			if st != sat.Sat {
				s.join(id)
				break
			}
			if cex := s.refine(); cex != nil {
				return cex, false
			}
		}
	}
	return nil, true
}

// merge records that miter node id equals the older miter literal target.
func (s *sweeper) merge(id int32, target aig.Lit) {
	s.img[id] = s.image(target)
	s.merges = append(s.merges, miter.Merge{Member: id, Target: target})
}

// join makes node id a member of its class, after every older member.
func (s *sweeper) join(id int32) {
	s.classes[s.key[id]] = append(s.classes[s.key[id]], id)
}

// candidate returns the first older member of node id's class that agrees
// with it on every counter-example pattern, as the literal that id would
// equal.
func (s *sweeper) candidate(id int32) (aig.Lit, bool) {
	for _, r := range s.classes[s.key[id]] {
		if r >= id {
			break // a PI numbered after the AND
		}
		p := s.flip[id] != s.flip[r]
		if s.agree(id, r, -uint64(boolBit(p))) {
			return aig.MakeLit(int(r), p), true
		}
	}
	return 0, false
}

// agree reports whether nodes a and b differ by the complement mask p on
// every word of counter-example patterns.
func (s *sweeper) agree(a, b int32, p uint64) bool {
	for _, word := range s.cex {
		if word[a]^word[b] != p {
			return false
		}
	}
	return true
}

// refine adds the model of the last SAT call as a pattern of the bank: the
// PIs of the query's cone take their model values and the others random
// ones. It simulates the pattern's word through the live cone and returns
// the pattern when it fires a PO of the miter.
func (s *sweeper) refine() []bool {
	n := s.m.NumNodes()
	if len(s.cex) == 0 || s.lanes == 64 {
		s.cex = append(s.cex, make([]uint64, n))
		s.in = append(s.in, make([]uint64, s.m.NumPIs()))
		s.lanes = 0
	}
	k, b := len(s.cex)-1, uint(s.lanes)
	s.lanes++
	in := s.in[k]
	for i := range in {
		in[i] |= (s.rng.Uint64() & 1) << b
	}
	for _, pid := range s.pis {
		i := int(pid) - 1 // the FRAIG's PI i is node i+1
		v, _ := s.enc.Model(int(pid))
		in[i] = in[i]&^(1<<b) | boolBit(v)<<b
	}
	word := s.cex[k]
	for i, bits := range in {
		word[s.m.PIID(i)] = bits
	}
	for _, id := range s.live {
		f0, f1 := s.m.Fanins(int(id))
		word[id] = (word[f0.ID()] ^ -uint64(f0&1)) & (word[f1.ID()] ^ -uint64(f1&1))
	}
	for i := 0; i < s.m.NumPOs(); i++ {
		po := s.m.PO(i)
		if v := word[po.ID()] ^ -uint64(po&1); v != 0 {
			lane := uint(bits.TrailingZeros64(v))
			cex := make([]bool, len(in))
			for i, bits := range in {
				cex[i] = bits>>lane&1 == 1
			}
			return cex
		}
	}
	return nil
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
