// Package sim implements the two simulators of the CEC engine: the partial
// simulator that drives random and counter-example patterns through the
// whole miter to initialise and refine equivalence classes, and the
// exhaustive simulator that proves candidate pairs by comparing entire
// truth tables (Algorithm 1 of the paper), organised around simulation
// windows with optional window merging.
package sim

import (
	"math/bits"
	"math/rand"

	"simsweep/internal/aig"
	"simsweep/internal/par"
	"simsweep/internal/trace"
)

// PIValue assigns a value to one primary input (by PI index, not node id).
type PIValue struct {
	Index int
	Value bool
}

// Partial is the partial simulator. It owns a persistent pattern bank at
// the primary inputs: an initial block of random pattern words plus words
// appended for counter-example patterns. The bank survives miter rebuilds
// (PI order is preserved by reduction), so disproved pairs stay split across
// phases without extra bookkeeping.
type Partial struct {
	dev *par.Device
	rng *rand.Rand

	// Trace, when non-nil and enabled, receives one span per Simulate
	// call with the bank width and node count of the sweep.
	Trace *trace.Tracer

	words int        // words currently in the bank
	bank  [][]uint64 // per PI index

	fill    []PIValue // pending assignments for the partially filled word
	pending int       // patterns already packed into the fill word
}

// NewPartial creates a partial simulator for numPIs inputs with initWords
// 64-pattern words of seeded random stimulus.
func NewPartial(dev *par.Device, numPIs, initWords int, seed int64) *Partial {
	if initWords < 1 {
		initWords = 1
	}
	p := &Partial{dev: dev, rng: rand.New(rand.NewSource(seed)), words: initWords}
	p.bank = make([][]uint64, numPIs)
	for i := range p.bank {
		w := make([]uint64, initWords)
		for j := range w {
			w[j] = p.rng.Uint64()
		}
		p.bank[i] = w
	}
	return p
}

// Words returns the current bank width in 64-bit words.
func (p *Partial) Words() int { return p.words }

// ExportBank returns a deep copy of the pattern bank (per PI index). A
// downstream checker can seed its own partial simulator with it so that
// every pair already disproved upstream stays split — the paper's §V
// "EC transferring" improvement.
func (p *Partial) ExportBank() [][]uint64 {
	out := make([][]uint64, len(p.bank))
	for i, w := range p.bank {
		out[i] = append([]uint64(nil), w...)
	}
	return out
}

// ImportBank prepends an exported pattern bank (over the same PI count)
// to this simulator's own patterns.
func (p *Partial) ImportBank(bank [][]uint64) {
	if len(bank) != len(p.bank) || len(bank) == 0 {
		return
	}
	w := len(bank[0])
	for i := range p.bank {
		if len(bank[i]) != w {
			return // malformed bank; keep local patterns only
		}
		p.bank[i] = append(append([]uint64(nil), bank[i]...), p.bank[i]...)
	}
	p.words += w
}

// NumPIs returns the number of inputs the bank covers.
func (p *Partial) NumPIs() int { return len(p.bank) }

// AddPattern queues one counter-example pattern. Unassigned PIs receive
// random values, which both completes the pattern and provides fresh
// stimulus. Up to 64 patterns pack into each appended bank word.
func (p *Partial) AddPattern(assign []PIValue) {
	if p.pending == 0 {
		// Open a new word filled with random bits; queued patterns
		// overwrite their bit lane below.
		for i := range p.bank {
			p.bank[i] = append(p.bank[i], p.rng.Uint64())
		}
		p.words++
	}
	w := p.words - 1
	bit := uint(p.pending)
	for _, a := range assign {
		if a.Value {
			p.bank[a.Index][w] |= 1 << bit
		} else {
			p.bank[a.Index][w] &^= 1 << bit
		}
	}
	p.pending = (p.pending + 1) % 64
}

// sweepBlockWords is the word-range granularity the partial sweep is split
// into: one 64-byte cache line of simulation words. The default 8-word bank
// is a single block, so its sweep runs inline on the launching goroutine.
const sweepBlockWords = 8

// Simulate propagates the pattern bank through g and returns per-node
// simulation words (indexed by node id, each of length Words()). Node 0 is
// constant zero.
//
// The sweep visits the AND nodes in ascending id order, which is a
// topological schedule because AIG ids are topological (as in the
// exhaustive window kernel), so the whole graph simulates in one kernel
// launch with no barrier between levels. The launch is split only along the
// word dimension: each task sweeps every node over its own block of
// sweepBlockWords words. The kernel keeps the name "partial.level" from the
// former one-launch-per-level dispatch because kernel profiles and the
// benchmark ledger (par.partial_level.*) report it under that name.
//
// A non-nil error means the kernel failed (a recovered worker panic) and
// the returned values are unusable; callers must not derive verdicts — in
// particular disproofs — from them.
func (p *Partial) Simulate(g *aig.AIG) ([][]uint64, error) {
	n := g.NumNodes()
	W := p.words
	if p.Trace.Enabled() {
		sp := p.Trace.Buf(trace.ControlTrack).Begin(trace.CatSim, "partial.sim")
		sp.Arg("words", int64(W))
		sp.Arg("nodes", int64(n))
		defer sp.End()
	}
	flat := make([]uint64, n*W)
	for i := 0; i < g.NumPIs(); i++ {
		id := g.PIID(i)
		copy(flat[id*W:id*W+W], p.bank[i])
	}

	blocks := (W + sweepBlockWords - 1) / sweepBlockWords
	err := p.dev.LaunchChunked("partial.level", blocks, func(lo, hi int) {
		w0, w1 := lo*sweepBlockWords, hi*sweepBlockWords
		if w1 > W {
			w1 = W
		}
		for id := 1; id < n; id++ {
			if !g.IsAnd(id) {
				continue
			}
			f0, f1 := g.Fanins(id)
			dst := flat[id*W+w0 : id*W+w1]
			s0 := flat[f0.ID()*W+w0 : f0.ID()*W+w1]
			s1 := flat[f1.ID()*W+w0 : f1.ID()*W+w1]
			m0 := -uint64(f0 & 1) // all ones for a complemented fanin
			m1 := -uint64(f1 & 1)
			for w := range dst {
				dst[w] = (s0[w] ^ m0) & (s1[w] ^ m1)
			}
		}
	})
	if err != nil {
		// A task panicked: its words of every node above the failure hold
		// garbage, and a garbage sweep must never reach FindNonZeroPO (it
		// could fabricate a disproof of an equivalent miter).
		return nil, err
	}

	result := make([][]uint64, n)
	for id := range result {
		result[id] = flat[id*W : id*W+W : id*W+W]
	}
	return result, nil
}

// FindNonZeroPO scans PO simulation values and returns the index of a PO
// that evaluates to 1 under some bank pattern, together with the full PI
// assignment (by PI index) of the first such pattern — an immediate
// disproof of a miter. It returns (-1, nil) when every PO is zero over the
// whole bank.
func (p *Partial) FindNonZeroPO(g *aig.AIG, sims [][]uint64) (int, []bool) {
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		words := sims[po.ID()]
		m := uint64(0)
		if po.IsCompl() {
			m = ^uint64(0)
		}
		for w := 0; w < p.words; w++ {
			v := words[w] ^ m
			if v != 0 {
				bit := uint(bits.TrailingZeros64(v))
				in := make([]bool, g.NumPIs())
				for k := range in {
					in[k] = (p.bank[k][w]>>bit)&1 == 1
				}
				return i, in
			}
		}
	}
	return -1, nil
}
