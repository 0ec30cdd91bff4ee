// Package cuts implements the cut generator of the CEC engine: priority-cut
// enumeration with pass-dependent selection criteria (Table I of the
// paper), similarity-steered cut selection for non-representative nodes,
// enumeration levels that sequence representatives before their class
// members (Eq. 2), and common-cut generation for candidate pairs.
//
// The enumeration kernel ("cuts.strata") dispatches enumeration levels in
// strata: consecutive levels are fused into one wavefront launch (par.Strata
// batching, par.LaunchWave execution) and intra-stratum dependencies are
// resolved by per-node done flags, so launch count scales with circuit size
// rather than circuit depth. The per-node inner loop is allocation-free:
// each worker borrows a scratch workspace carrying an open-addressed
// signature table (single-hash dedup), fixed candidate buffers, and arenas
// that back the accepted cuts until the next Run. A configurable candidate
// budget stops enumerating a node once enough cuts are locked in; because
// the fanin cut sets are already ordered best-first by the pass criterion,
// the pairs visited first are the most promising ones. The original
// per-level, allocation-heavy implementation is retained behind
// Config.Reference (kernel "cuts.level") for differential tests and
// before/after benchmarks.
package cuts

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"simsweep/internal/aig"
	"simsweep/internal/ec"
	"simsweep/internal/par"
	"simsweep/internal/trace"
)

// Cut is a set of leaves (sorted node ids) together with its selection
// metrics: the average fanout count and average level of the leaves.
type Cut struct {
	Leaves    []int32
	AvgFanout float32
	AvgLevel  float32
	// mask is the 64-bit leaf membership bloom (bit id&63 per leaf). Its
	// popcount lower-bounds the distinct-leaf count of any union, so the
	// strata kernel rejects oversized unions and skips disjoint similarity
	// terms without merging. Zero on reference-built cuts, which never
	// read it.
	mask uint64
}

// Size returns the number of leaves.
func (c *Cut) Size() int { return len(c.Leaves) }

// Pass selects the cut-selection criteria of one generation pass.
type Pass int

// The three passes of Table I. Pass 1 prefers high-fanout leaves, pass 2
// low-level leaves (more logic in the cone, fewer SDCs), pass 3 high-level
// leaves (smaller cones that capture local restructuring).
const (
	PassFanout Pass = iota
	PassSmallLevel
	PassLargeLevel
)

// Passes is the default pass sequence of a local-function checking phase.
var Passes = []Pass{PassFanout, PassSmallLevel, PassLargeLevel}

// String names the cut-selection pass (Table I).
func (p Pass) String() string {
	switch p {
	case PassFanout:
		return "fanout"
	case PassSmallLevel:
		return "small-level"
	case PassLargeLevel:
		return "large-level"
	}
	return "unknown"
}

// DefaultStrataNodes is the stratum size selected when Config.StrataNodes
// is unset: enumeration levels are fused until a launch covers at least
// this many nodes.
const DefaultStrataNodes = 4096

// Config carries the cut-enumeration parameters: K is the maximum cut size
// (k_l in the paper) and C the number of priority cuts kept per node.
// NoSimilarity disables the similarity-steered selection of
// non-representative nodes (an ablation knob; the paper's engine always
// steers).
type Config struct {
	K            int
	C            int
	NoSimilarity bool
	// KeepDominated retains cuts that are supersets of other candidates.
	// Equivalence checking wants them filtered (a dominated cut proves
	// nothing its dominator cannot); resynthesis wants them kept (larger
	// cuts give ISOP more freedom).
	KeepDominated bool
	// Budget caps the deduplicated candidate cuts enumerated per node
	// before selection. The fanin cut sets are ordered best-first by the
	// pass criterion, so enumeration visits the most promising fanin-cut
	// pairs first and stops once Budget candidates are locked in instead
	// of grinding through all (C+1)² unions. Non-positive selects 4·C;
	// values beyond (C+1)² are equivalent to unlimited.
	Budget int
	// StrataNodes is the minimum number of nodes fused into one
	// enumeration launch: consecutive enumeration levels are batched until
	// a stratum holds at least this many nodes, and intra-stratum
	// dependencies resolve through the wavefront done flags. Non-positive
	// selects DefaultStrataNodes; 1 reproduces per-level dispatch.
	StrataNodes int
	// Reference selects the retained reference implementation — the
	// original per-level, allocation-heavy enumeration (kernel
	// "cuts.level") with semantics identical to the strata kernel. It
	// exists for differential tests and before/after benchmarking
	// (BenchmarkCutsPassReference); the engine never selects it.
	Reference bool
}

// DefaultConfig mirrors the paper's parameters: k_l = 8, C = 8.
func DefaultConfig() Config { return Config{K: 8, C: 8} }

// Stats aggregates the enumeration work of every pass Run on one generator.
type Stats struct {
	// Passes counts completed Run calls.
	Passes int
	// Nodes counts AND nodes enumerated across all passes.
	Nodes int64
	// Candidates counts deduplicated candidate cuts generated (before
	// dominance filtering and selection).
	Candidates int64
	// Kept counts priority cuts surviving selection.
	Kept int64
	// Pairs counts PairCuts emitted.
	Pairs int64
	// Launches counts enumeration kernel launches.
	Launches int
}

// Generator enumerates priority cuts over one AIG. It is rebuilt whenever
// the miter is rebuilt.
type Generator struct {
	g   *aig.AIG
	dev *par.Device
	cfg Config

	// Trace, when non-nil and enabled, receives one control-track span per
	// enumeration pass (category trace.CatCuts, name "cuts.pass").
	Trace *trace.Tracer

	budget  int // effective per-node candidate budget
	maxCand int // buffer capacity bound: min(budget, (C+1)²)

	fanouts []int32
	levels  []int32
	pcuts   [][]Cut

	// Enumeration schedule, prepared once per class manager and shared by
	// the three passes of a phase.
	prepared    bool
	preparedFor *ec.Manager
	order       []int32  // AND nodes, ascending enumeration level then id
	strata      [][2]int // launch batches over order (par.Strata)
	numLevels   int      // distinct enumeration levels (per-level launch count)

	done    []uint32   // wavefront flags: pcuts[id] valid this Run
	results []PairCuts // per order index, rewritten every Run

	piCuts   []Cut // trivial PI cuts, seeded once, shared across Runs
	piLeaves []int32

	mu        sync.Mutex
	free      []*scratch // idle workspaces
	scratches []*scratch // every workspace ever created (arena reset, stats)

	stats Stats
}

// NewGenerator prepares a cut generator for g.
func NewGenerator(g *aig.AIG, dev *par.Device, cfg Config) *Generator {
	if cfg.K < 2 {
		cfg.K = 2
	}
	if cfg.C < 1 {
		cfg.C = 1
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = 4 * cfg.C
	}
	maxCand := (cfg.C + 1) * (cfg.C + 1)
	if budget > maxCand {
		budget = maxCand // a node can never yield more candidates
	}
	return &Generator{
		g:       g,
		dev:     dev,
		cfg:     cfg,
		budget:  budget,
		maxCand: budget,
		fanouts: g.FanoutCounts(),
		levels:  g.Levels(),
	}
}

// Stats returns the work counters accumulated by the passes Run so far.
func (gen *Generator) Stats() Stats { return gen.stats }

// PairCuts is the output unit of an enumeration pass: the common cuts of
// the candidate pair (Repr, Member).
type PairCuts struct {
	Pair ec.Pair
	Cuts []Cut
}

// EnumerationLevels computes el(·) per Eq. 2: PIs (and the constant) have
// level 0; a representative's level is 1 + max fanin level; a
// non-representative additionally waits for its representative.
func (gen *Generator) EnumerationLevels(m *ec.Manager) []int32 {
	g := gen.g
	el := make([]int32, g.NumNodes())
	for id := 1; id < g.NumNodes(); id++ {
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.Fanins(id)
		lv := el[f0.ID()]
		if l := el[f1.ID()]; l > lv {
			lv = l
		}
		if r, nonRepr := m.Repr(id); nonRepr {
			if l := el[r]; l > lv {
				lv = l
			}
		}
		el[id] = lv + 1
	}
	return el
}

// prepare computes the enumeration schedule for m: the flat node order
// (ascending enumeration level, ascending id within a level — the same
// order the per-level reference visits) and its launch strata. The
// schedule only depends on the structure and the classes, so the three
// passes of a phase share one preparation.
func (gen *Generator) prepare(m *ec.Manager) {
	if gen.prepared && gen.preparedFor == m {
		return
	}
	gen.prepared, gen.preparedFor = true, m
	g := gen.g
	el := gen.EnumerationLevels(m)
	maxLevel, nand := int32(0), 0
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsAnd(id) {
			nand++
			if el[id] > maxLevel {
				maxLevel = el[id]
			}
		}
	}
	sizes := make([]int, maxLevel) // level l lives at sizes[l-1]
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsAnd(id) {
			sizes[el[id]-1]++
		}
	}
	offs := make([]int, maxLevel)
	sum := 0
	for l, s := range sizes {
		offs[l] = sum
		sum += s
	}
	order := make([]int32, nand)
	numLevels := 0
	for _, s := range sizes {
		if s > 0 {
			numLevels++
		}
	}
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsAnd(id) {
			l := el[id] - 1
			order[offs[l]] = int32(id)
			offs[l]++
		}
	}
	sn := gen.cfg.StrataNodes
	if sn <= 0 {
		sn = DefaultStrataNodes
	}
	gen.order = order
	gen.numLevels = numLevels
	gen.strata = par.Strata(sizes, sn)
	gen.done = make([]uint32, g.NumNodes())
	gen.results = make([]PairCuts, len(order))
}

// NumLevels reports the number of non-empty enumeration levels of the last
// prepared schedule — the launch count the per-level reference would pay.
func (gen *Generator) NumLevels() int { return gen.numLevels }

// Run executes one cut generation pass (Algorithm 2, minus the checking):
// it computes priority cuts wavefront-parallel over enumeration-level
// strata and calls emit once per non-representative node with the valid
// common cuts of its candidate pair. emit is called from the control
// goroutine, in ascending enumeration-level order (ascending id within a
// level), so the caller can maintain an unsynchronised buffer. Emitted cut
// leaves are arena-backed: they stay valid until the next Run on this
// generator, and callers that retain them longer must copy.
//
// A non-nil error means an enumeration kernel failed (a recovered worker
// panic): cuts already emitted are valid — every emitted cut is verified by
// exhaustive simulation downstream anyway — but enumeration stopped early,
// so the pass is incomplete.
func (gen *Generator) Run(pass Pass, m *ec.Manager, emit func(PairCuts)) error {
	if gen.cfg.Reference {
		return gen.referenceRun(pass, m, emit)
	}
	g := gen.g
	gen.prepare(m)
	if gen.pcuts == nil {
		gen.pcuts = make([][]Cut, g.NumNodes())
		gen.piLeaves = make([]int32, g.NumPIs())
		gen.piCuts = make([]Cut, g.NumPIs())
		for i := 0; i < g.NumPIs(); i++ {
			id := g.PIID(i)
			gen.piLeaves[i] = int32(id)
			gen.piCuts[i] = gen.makeCut(gen.piLeaves[i : i+1 : i+1])
			gen.pcuts[id] = gen.piCuts[i : i+1 : i+1]
		}
	}
	clear(gen.done)
	gen.mu.Lock()
	for _, sc := range gen.scratches {
		sc.resetRun()
	}
	gen.mu.Unlock()

	var sp trace.Span
	if gen.Trace.Enabled() {
		sp = gen.Trace.Buf(trace.ControlTrack).Begin(trace.CatCuts, "cuts.pass")
		sp.Arg("pass", int64(pass))
		sp.Arg("nodes", int64(len(gen.order)))
		sp.Arg("strata", int64(len(gen.strata)))
	}
	emitted := int64(0)
	for _, b := range gen.strata {
		lo, hi := b[0], b[1]
		err := gen.dev.LaunchWave("cuts.strata", hi-lo, func(fl *par.Flight, clo, chi int) {
			gen.runChunk(fl, pass, m, lo+clo, lo+chi)
		})
		gen.stats.Launches++
		if err != nil {
			// Later strata would enumerate from the poisoned cut sets of
			// this one; stop here. Nothing from the failed stratum is
			// emitted.
			sp.End()
			return err
		}
		for i := lo; i < hi; i++ {
			if pc := &gen.results[i]; pc.Cuts != nil {
				emit(*pc)
				emitted++
			}
		}
	}
	gen.stats.Passes++
	gen.stats.Nodes += int64(len(gen.order))
	gen.stats.Pairs += emitted
	gen.foldScratchStats()
	sp.Arg("pairs", emitted)
	sp.End()
	return nil
}

// runChunk enumerates the flat order range [lo, hi). Dependencies on nodes
// of other chunks are resolved through the done flags; a chunk of a failed
// launch bails out of its waits (par.Flight.Failed) without publishing
// results.
func (gen *Generator) runChunk(fl *par.Flight, pass Pass, m *ec.Manager, lo, hi int) {
	sc := gen.getScratch()
	defer gen.putScratch(sc)
	for i := lo; i < hi; i++ {
		id := int(gen.order[i])
		gen.results[i] = PairCuts{}
		f0, f1 := gen.g.Fanins(id)
		repr, nonRepr := m.Repr(id)
		if !gen.wait(fl, f0.ID()) || !gen.wait(fl, f1.ID()) {
			return
		}
		if nonRepr && repr != 0 && !gen.wait(fl, int(repr)) {
			return
		}
		var simTo []Cut
		if nonRepr && repr != 0 && !gen.cfg.NoSimilarity {
			simTo = gen.pcuts[repr]
		}
		gen.pcuts[id] = gen.enumerateNode(sc, id, pass, simTo)
		if nonRepr {
			pair, _ := m.PairOf(id)
			var common []Cut
			if repr == 0 {
				// Candidate constant: any cut of the member works, since
				// the comparison is against constant zero.
				common = gen.pcuts[id]
			} else {
				common = gen.commonCuts(sc, gen.pcuts[repr], gen.pcuts[id])
			}
			if len(common) > 0 {
				gen.results[i] = PairCuts{Pair: pair, Cuts: common}
			}
		}
		atomic.StoreUint32(&gen.done[id], 1)
	}
}

// wait blocks until node id's cuts for this Run are published, spinning
// across the intra-stratum dependency frontier. Chunks are claimed in
// ascending order over a topologically sorted space, so the lowest
// in-flight chunk never waits and the launch always progresses. It returns
// false when the launch failed (a sibling chunk panicked and the flags it
// would have set will never arrive).
func (gen *Generator) wait(fl *par.Flight, id int) bool {
	if !gen.g.IsAnd(id) {
		return true // PIs and the constant are ready before any stratum
	}
	if atomic.LoadUint32(&gen.done[id]) != 0 {
		return true
	}
	for {
		runtime.Gosched()
		if atomic.LoadUint32(&gen.done[id]) != 0 {
			return true
		}
		if fl.Failed() {
			return false
		}
	}
}

// makeCut computes the metric annotations of a leaf set.
func (gen *Generator) makeCut(leaves []int32) Cut {
	var fo, lv float32
	var m uint64
	for _, id := range leaves {
		fo += float32(gen.fanouts[id])
		lv += float32(gen.levels[id])
		m |= 1 << (uint32(id) & 63)
	}
	n := float32(len(leaves))
	return Cut{Leaves: leaves, AvgFanout: fo / n, AvgLevel: lv / n, mask: m}
}

// enumerateNode computes the priority cuts of node id for the pass,
// steering by similarity to simTo when non-nil (Eq. 1 plus §III-C1). All
// intermediate state lives in the worker's scratch; the returned cuts are
// arena-backed and valid until the next Run.
func (gen *Generator) enumerateNode(sc *scratch, id int, pass Pass, simTo []Cut) []Cut {
	f0, f1 := gen.g.Fanins(id)
	p0, p1 := gen.pcuts[f0.ID()], gen.pcuts[f1.ID()]
	sc.triv[0], sc.triv[1] = int32(f0.ID()), int32(f1.ID())
	tm0 := uint64(1) << (uint32(f0.ID()) & 63)
	tm1 := uint64(1) << (uint32(f1.ID()) & 63)
	k := gen.cfg.K
	sc.resetNode()
outer:
	// The fanin cut sets plus the trivial cut last, exactly like the
	// reference's withTrivial ordering.
	for ui := 0; ui <= len(p0); ui++ {
		u, um := sc.triv[0:1], tm0
		if ui < len(p0) {
			u, um = p0[ui].Leaves, p0[ui].mask
		}
		for vi := 0; vi <= len(p1); vi++ {
			v, vm := sc.triv[1:2], tm1
			if vi < len(p1) {
				v, vm = p1[vi].Leaves, p1[vi].mask
			}
			m := um | vm
			// popcount(m) lower-bounds the union's distinct leaves, so an
			// oversized pair is rejected without the merge.
			if len(u)+len(v) > k && bits.OnesCount64(m) > k {
				continue
			}
			sc.addCandidate(gen, u, v, m)
			if len(sc.cands) >= gen.budget {
				break outer
			}
		}
	}
	sc.nCands += int64(len(sc.cands))
	if len(sc.cands) == 0 {
		return nil
	}
	cands := sc.cands
	if !gen.cfg.KeepDominated {
		cands = sc.filterDominated(cands)
	}
	gen.fillMetrics(cands)
	var sims []float32
	if simTo != nil {
		sims = sc.sims[:len(cands)]
		if sc.buildSimIndex(simTo) {
			for i := range cands {
				proj := sc.projectSim(cands[i].Leaves)
				var s float32
				for j := range simTo {
					inter := bits.OnesCount64(proj & sc.pm[j])
					if inter == 0 {
						continue // empty intersection: Jaccard term is 0
					}
					union := len(cands[i].Leaves) + len(simTo[j].Leaves) - inter
					s += float32(inter) / float32(union)
				}
				sims[i] = s
			}
		} else {
			for i := range cands {
				sims[i] = similaritySteered(&cands[i], simTo)
			}
		}
	}
	order := sc.order[:0]
	for i := range cands {
		order = append(order, int32(i))
	}
	// Stable insertion sort: same ordering as the reference's
	// sort.SliceStable under the same comparator, without its
	// closure-and-interface allocations.
	for i := 1; i < len(order); i++ {
		x := order[i]
		j := i
		for j > 0 && cutLess(pass, cands, sims, x, order[j-1]) {
			order[j] = order[j-1]
			j--
		}
		order[j] = x
	}
	n := gen.cfg.C
	if n > len(cands) {
		n = len(cands)
	}
	out := sc.cuts.alloc(n)
	for k := 0; k < n; k++ {
		c := &cands[order[k]]
		leaves := sc.arena.alloc(len(c.Leaves))
		copy(leaves, c.Leaves)
		out[k] = Cut{Leaves: leaves, AvgFanout: c.AvgFanout, AvgLevel: c.AvgLevel, mask: c.mask}
	}
	sc.nKept += int64(n)
	return out
}

// cutLess orders candidate indices by similarity first (when steering),
// then by the pass criteria of Table I.
func cutLess(pass Pass, cands []Cut, sims []float32, i, j int32) bool {
	if sims != nil && sims[i] != sims[j] {
		return sims[i] > sims[j]
	}
	return betterCut(pass, &cands[i], &cands[j])
}

// commonCuts merges the priority cuts of a pair per Eq. 1 with the trivial
// cuts excluded: {u ∪ v : u ∈ P(a), v ∈ P(b), |u ∪ v| ≤ K}, capped at the
// candidate budget.
func (gen *Generator) commonCuts(sc *scratch, pa, pb []Cut) []Cut {
	k := gen.cfg.K
	sc.resetNode()
outer:
	for i := range pa {
		u, um := pa[i].Leaves, pa[i].mask
		for j := range pb {
			m := um | pb[j].mask
			if len(u)+len(pb[j].Leaves) > k && bits.OnesCount64(m) > k {
				continue
			}
			sc.addCandidate(gen, u, pb[j].Leaves, m)
			if len(sc.cands) >= gen.budget {
				break outer
			}
		}
	}
	sc.nCands += int64(len(sc.cands))
	if len(sc.cands) == 0 {
		return nil
	}
	gen.fillMetrics(sc.cands)
	out := sc.cuts.alloc(len(sc.cands))
	for i := range sc.cands {
		c := &sc.cands[i]
		leaves := sc.arena.alloc(len(c.Leaves))
		copy(leaves, c.Leaves)
		out[i] = Cut{Leaves: leaves, AvgFanout: c.AvgFanout, AvgLevel: c.AvgLevel, mask: c.mask}
	}
	return out
}

// fillMetrics computes the selection metrics of the candidates in place —
// deferred until after dominance filtering so dominated candidates never
// pay for them. The summation order per cut matches makeCut exactly.
func (gen *Generator) fillMetrics(cands []Cut) {
	for i := range cands {
		c := &cands[i]
		var fo, lv float32
		for _, id := range c.Leaves {
			fo += float32(gen.fanouts[id])
			lv += float32(gen.levels[id])
		}
		n := float32(len(c.Leaves))
		c.AvgFanout, c.AvgLevel = fo/n, lv/n
	}
}

// PriorityCuts exposes the cuts computed by the last Run for node id
// (useful for tests and diagnostics).
func (gen *Generator) PriorityCuts(id int) []Cut {
	if gen.pcuts == nil {
		return nil
	}
	return gen.pcuts[id]
}

// getScratch borrows a worker workspace, creating one when the freelist is
// empty. Workspaces are tracked explicitly (not via sync.Pool) because the
// generator must enumerate them to reset their arenas at Run boundaries
// and to fold their work counters into Stats.
func (gen *Generator) getScratch() *scratch {
	gen.mu.Lock()
	if n := len(gen.free); n > 0 {
		sc := gen.free[n-1]
		gen.free = gen.free[:n-1]
		gen.mu.Unlock()
		return sc
	}
	gen.mu.Unlock()
	sc := newScratch(gen.cfg.K, gen.maxCand)
	gen.mu.Lock()
	gen.scratches = append(gen.scratches, sc)
	gen.mu.Unlock()
	return sc
}

// putScratch returns a workspace to the freelist.
func (gen *Generator) putScratch(sc *scratch) {
	gen.mu.Lock()
	gen.free = append(gen.free, sc)
	gen.mu.Unlock()
}

// foldScratchStats folds the per-workspace counters into Stats.
func (gen *Generator) foldScratchStats() {
	gen.mu.Lock()
	for _, sc := range gen.scratches {
		gen.stats.Candidates += sc.nCands
		gen.stats.Kept += sc.nKept
		sc.nCands, sc.nKept = 0, 0
	}
	gen.mu.Unlock()
}

// betterCut orders cuts by the pass criteria of Table I.
func betterCut(pass Pass, a, b *Cut) bool {
	switch pass {
	case PassFanout:
		if a.AvgFanout != b.AvgFanout {
			return a.AvgFanout > b.AvgFanout
		}
		if len(a.Leaves) != len(b.Leaves) {
			return len(a.Leaves) < len(b.Leaves)
		}
		return a.AvgLevel < b.AvgLevel
	case PassSmallLevel:
		if a.AvgLevel != b.AvgLevel {
			return a.AvgLevel < b.AvgLevel
		}
		if len(a.Leaves) != len(b.Leaves) {
			return len(a.Leaves) < len(b.Leaves)
		}
		return a.AvgFanout > b.AvgFanout
	default: // PassLargeLevel
		if a.AvgLevel != b.AvgLevel {
			return a.AvgLevel > b.AvgLevel
		}
		if len(a.Leaves) != len(b.Leaves) {
			return len(a.Leaves) < len(b.Leaves)
		}
		return a.AvgFanout > b.AvgFanout
	}
}

// Similarity is the metric s(c, P) = Σ_{c'∈P} |c∩c'| / |c∪c'| steering the
// cut selection of non-representative nodes towards their representative's
// priority cuts.
func Similarity(c []int32, P []Cut) float32 {
	var s float32
	for i := range P {
		inter, union := intersectUnionSizes(c, P[i].Leaves)
		if union > 0 {
			s += float32(inter) / float32(union)
		}
	}
	return s
}

// similaritySteered is Similarity with the strata kernel's leaf-mask fast
// path: disjoint masks prove an empty intersection, whose Jaccard term is
// exactly 0, so the merge is skipped without changing the sum.
func similaritySteered(c *Cut, P []Cut) float32 {
	var s float32
	for i := range P {
		if c.mask&P[i].mask == 0 {
			continue
		}
		inter, union := intersectUnionSizes(c.Leaves, P[i].Leaves)
		if union > 0 {
			s += float32(inter) / float32(union)
		}
	}
	return s
}

func intersectUnionSizes(a, b []int32) (inter, union int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return inter, len(a) + len(b) - inter
}

// isSubset reports whether sorted slice a ⊆ sorted slice b.
func isSubset(a, b []int32) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

func hashLeaves(leaves []int32) uint64 {
	h := uint64(0xCBF29CE484222325)
	for _, id := range leaves {
		h ^= uint64(uint32(id))
		h *= 0x100000001B3
	}
	return h
}

func sameLeaves(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
