// Package core implements the paper's contribution: the simulation-based
// CEC engine. Candidate equivalences are proved by exhaustive simulation —
// comparing entire truth tables — instead of SAT, organised as the
// three-phase sweeping flow of Fig. 5: PO checking (P), global function
// checking (G) and repeated local function checking phases (L), each built
// on the parallel exhaustive simulator (Algorithm 1), the cut generator
// (Algorithm 2) and the shared miter/EC infrastructure.
package core

import (
	"fmt"
	"io"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/cuts"
	"simsweep/internal/fault"
	"simsweep/internal/miter"
	"simsweep/internal/par"
	"simsweep/internal/trace"
)

// Config carries the engine parameters. The names follow the paper:
// KP/Kp bound the support of simulatable POs, Kg bounds global function
// checking, Kl and C control cut enumeration, and Ks (derived) bounds
// window merging.
type Config struct {
	KP int // one-shot PO checking threshold (paper: 32)
	Kp int // per-PO checking threshold (paper: 16)
	Kg int // global function checking threshold (paper: 16)
	Kl int // maximum cut size k_l (paper: 8)
	C  int // priority cuts per node (paper: 8)

	// SimWords is the number of 64-pattern random words initialising the
	// equivalence classes.
	SimWords int
	// Seed drives the random patterns.
	Seed int64
	// MemBudgetWords caps the words one round of exhaustive simulation
	// simulates (Algorithm 1's M): the per-entry size E adapts to it. Each
	// simulation task works in a table of its own, so M bounds work per
	// round, not memory.
	MemBudgetWords int
	// SimSliceWork approximates the slot·word work of one parallel task
	// inside the exhaustive simulator; windows above it are split along
	// the truth-table word dimension so a single huge window still
	// saturates the device's worker pool. Non-positive selects the
	// simulator's built-in default.
	SimSliceWork int
	// CutBudget caps the candidate cuts the generator enumerates per node
	// before selection (cuts.Config.Budget). Non-positive selects the
	// generator's default of 4·C.
	CutBudget int
	// MaxLocalPhases caps the repeated L phases (fixpoint reached earlier
	// stops the loop anyway).
	MaxLocalPhases int
	// KeepSnapshots records the reduced miter after the P, G and final L
	// phases (Figure 7's PG/PGL flows). Costs one Clean per phase.
	KeepSnapshots bool

	// AdaptivePasses disables, in each repeated L phase, the cut
	// generation passes that proved nothing in the previous phase — the
	// paper's §V "more adaptive flow" tweak.
	AdaptivePasses bool

	// DisableWindowMerge turns off window merging in the P and G phases
	// (ablation of §III-B3).
	DisableWindowMerge bool
	// DisableSimilarity turns off similarity-steered cut selection for
	// non-representative nodes (ablation of §III-C1).
	DisableSimilarity bool
	// LocalPasses overrides the cut-selection passes of each L phase;
	// nil selects the paper's three passes (Table I).
	LocalPasses []cuts.Pass

	// PhaseBudget is the per-phase watchdog's wall-clock budget: each
	// executed phase (P, G or one L iteration) that is still running when
	// the budget elapses is cancelled cooperatively, through the same
	// polling points as Stop, and the run degrades to Undecided with the
	// trip recorded in Result.Faults instead of hanging. A phase that
	// finishes its work by the deadline — even exactly at it — is never
	// marked degraded: the trip only counts when the phase observes the
	// cancel and abandons work. Zero disables the watchdog.
	PhaseBudget time.Duration
	// phaseWorkBudget caps the estimated simulation effort one phase may
	// submit, in node·word units (the windowWork metric that also drives
	// the per-window cap maxWindowWork). A phase that would exceed it stops
	// submitting windows and the run degrades as for PhaseBudget — the
	// watchdog's memory/work estimate, complementing the wall-clock bound.
	// Zero disables the cap. Only tests set it.
	phaseWorkBudget int64
	// Faults, when armed, injects deterministic faults into the engine and
	// the simulators under it (see internal/fault). The caller also arms it
	// on the device (Dev.SetFaults) for kernel-panic injection; the facade
	// does both. Nil disables every hook at the cost of one nil check.
	Faults *fault.Injector

	// Dev supplies the parallel device (nil: all CPUs).
	Dev *par.Device
	// Stop cancels the run cooperatively between batches.
	Stop <-chan struct{}
	// Log, when non-nil, receives one progress line per phase.
	Log io.Writer
	// Trace, when non-nil and enabled, receives one span per executed
	// P/G/L phase (checked/proved/disproved/ANDs-remaining attributes)
	// plus one whole-run span, and is propagated to the simulators it
	// drives. The caller also attaches it to the device (Dev.SetTracer)
	// for per-worker kernel spans; the facade does both.
	Trace *trace.Tracer
}

// Fixed engine limits.
const (
	// maxWindowWork caps the simulation effort of a single window in
	// node·word units (truth-table words × slots). Windows beyond it are
	// skipped — first retried unmerged, then dropped — which is how the
	// CPU build realises the paper's per-phase computational budget: the
	// GPU original affords KP=32 one-shot checks, a CPU does not.
	maxWindowWork int64 = 1 << 28
	// cutBufferCap is the capacity of the common-cut buffer interleaving
	// cut generation with local checking (Algorithm 2's buf).
	cutBufferCap = 4096
	// maxCutsPerPair bounds the common cuts tried per candidate pair in
	// each pass.
	maxCutsPerPair = 8
)

// DefaultConfig returns the paper's parameter values.
func DefaultConfig() Config {
	return Config{
		KP:             32,
		Kp:             16,
		Kg:             16,
		Kl:             8,
		C:              8,
		SimWords:       8,
		MemBudgetWords: 1 << 22,
		MaxLocalPhases: 16,
	}
}

func (c *Config) fill() {
	d := DefaultConfig()
	if c.KP <= 0 {
		c.KP = d.KP
	}
	if c.Kp <= 0 {
		c.Kp = d.Kp
	}
	if c.Kg <= 0 {
		c.Kg = d.Kg
	}
	if c.Kl <= 0 {
		c.Kl = d.Kl
	}
	if c.C <= 0 {
		c.C = d.C
	}
	if c.SimWords <= 0 {
		c.SimWords = d.SimWords
	}
	if c.MemBudgetWords <= 0 {
		c.MemBudgetWords = d.MemBudgetWords
	}
	if c.MaxLocalPhases <= 0 {
		c.MaxLocalPhases = d.MaxLocalPhases
	}
	if c.Dev == nil {
		c.Dev = par.NewDevice(0)
	}
}

// logf writes a progress line when logging is enabled.
func (c *Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// stopped reports whether the caller cancelled the run.
func (c *Config) stopped() bool { return par.Stopped(c.Stop) }

// PhaseKind labels the three phase types of the flow.
type PhaseKind int

// Phase kinds (Fig. 5).
const (
	PhaseP PhaseKind = iota
	PhaseG
	PhaseL
)

// String returns the phase letter of Fig. 5 ("P", "G" or "L").
func (k PhaseKind) String() string {
	switch k {
	case PhaseP:
		return "P"
	case PhaseG:
		return "G"
	}
	return "L"
}

// ProvedPair records one equivalence the engine proved and merged: the
// member node, the literal it was merged into, the phase kind that proved
// it and the number of window inputs of the deciding check. The journal is
// an audit trail: every entry was established by comparing complete truth
// tables over the recorded window width.
type ProvedPair struct {
	Member int32
	Target aig.Lit
	Phase  PhaseKind
	Inputs int
}

// PhaseStat records one executed phase, feeding the Figure 6 breakdown.
type PhaseStat struct {
	Kind      PhaseKind
	Duration  time.Duration
	Checked   int // pair-checking jobs submitted
	Proved    int
	Disproved int
	AndsAfter int // AND nodes remaining after the phase's reduction

	// Cut-enumeration work of an L phase (zero for P and G phases):
	// nodes enumerated, deduplicated candidates generated, and kernel
	// launches across the phase's passes.
	CutNodes      int64
	CutCandidates int64
	CutLaunches   int
}

// Stats aggregates a run.
type Stats struct {
	Runtime        time.Duration
	InitialAnds    int
	FinalAnds      int
	WordsSimulated int64
	Rounds         int
}

// ReductionPercent reports the miter-size reduction of the run, the
// "Reduced (%)" column of Table II. A miter that was already empty after
// strashing (InitialAnds == 0) had nothing to reduce: the result is 0,
// never NaN.
func (s Stats) ReductionPercent() float64 {
	if s.InitialAnds == 0 {
		return 0
	}
	return 100 * (1 - float64(s.FinalAnds)/float64(s.InitialAnds))
}

// Result is the outcome of a CheckMiter run.
type Result struct {
	Outcome miter.Outcome
	// Stopped reports that the run returned Undecided because Config.Stop
	// cancelled it, not because the engine genuinely exhausted its phases.
	Stopped bool
	// Degraded reports that the run survived one or more internal faults
	// (kernel panics, watchdog trips) by abandoning work: the Outcome is
	// still trustworthy — faulted batches withdraw their verdicts rather
	// than guess — but may be weaker (Undecided) than a healthy run's.
	Degraded bool
	// Faults is the chain of survived faults, oldest first, in human-
	// readable form. Empty on a healthy run.
	Faults  []string
	CEX     []bool // PI assignment disproving the miter
	Reduced *aig.AIG
	Phases  []PhaseStat
	// Snapshots holds the cleaned intermediate miters after the named
	// flow prefixes ("P", "PG", "PGL") when Config.KeepSnapshots is set.
	Snapshots map[string]*aig.AIG
	Stats     Stats
	// PatternBank is the final simulation pattern bank (per PI index),
	// including every counter-example found. Seeding a downstream
	// checker with it transfers the engine's equivalence-class
	// knowledge (§V): disproved pairs stay split without re-proving.
	PatternBank [][]uint64
	// Journal lists every proved merge in the order it was applied.
	// Node ids refer to the miter as it was when the proof happened
	// (each reduction renumbers); the journal documents the engine's
	// work, phase by phase.
	Journal []ProvedPair
	// KernelProfile is the parallel device's per-kernel statistics table
	// at the end of the run.
	KernelProfile string
}
