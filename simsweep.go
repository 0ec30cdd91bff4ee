// Package simsweep is a combinational equivalence checking (CEC) toolkit
// built around simulation-based parallel sweeping: candidate node
// equivalences of a miter are proved by exhaustive simulation — comparing
// entire truth tables with a multi-round, parallel simulator — instead of
// SAT, following Liu & Young, "Simulation-based Parallel Sweeping: A New
// Perspective on Combinational Equivalence Checking" (DAC 2025).
//
// The package exposes:
//
//   - AIG construction and AIGER I/O (New, ReadAIGER, WriteAIGER),
//   - benchmark circuit generators and a resyn2-style optimizer
//     (Generate, Optimize, Double) for building realistic miters,
//   - the checkers: the simulation engine, a SAT sweeping baseline with a
//     built-in CDCL solver, a BDD engine, the two-stage hybrid flow
//     (simulation reduces the miter, SAT sweeping finishes the rest) and a
//     multi-engine portfolio (CheckEquivalence, CheckMiter).
//
// Everything is pure Go with no dependencies; the massively parallel GPU
// kernels of the original system are realised as CPU-parallel kernels over
// a worker-pool device.
package simsweep

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/aiger"
	"simsweep/internal/bdd"
	"simsweep/internal/core"
	"simsweep/internal/fault"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/par"
	"simsweep/internal/portfolio"
	"simsweep/internal/satsweep"
	"simsweep/internal/trace"
	"simsweep/internal/verilog"
)

// AIG is an And-Inverter Graph, the circuit representation of the toolkit.
// See NewAIG, ReadAIGER and Generate for the usual ways to obtain one.
type AIG = aig.AIG

// Lit is an AIG literal: a node with an optional complement.
type Lit = aig.Lit

// Constant literals.
const (
	False = aig.False
	True  = aig.True
)

// NewAIG returns an empty AIG for manual construction.
func NewAIG() *AIG { return aig.New() }

// Fingerprint returns a canonical structural hash of g: a 64-bit digest of
// the strashed DAG reachable from the POs plus the PI/PO interface
// signature, independent of node creation order. Structurally identical
// circuits share a fingerprint; restructuring (Optimize) changes it. The
// service layer's result cache keys on it.
func Fingerprint(g *AIG) uint64 { return g.Fingerprint() }

// Device is the parallel execution device the engines dispatch their
// kernels to: a persistent worker pool with per-kernel statistics. Checks
// create one on demand; supply your own (Options.Dev) to reuse the pool
// across checks, bound total parallelism across concurrent checks, or read
// kernel statistics afterwards.
type Device = par.Device

// NewDevice returns a Device with the given degree of parallelism
// (0: all CPUs). Close it when done, or let the GC collect it.
func NewDevice(workers int) *Device { return par.NewDevice(workers) }

// ReadAIGER parses an AIGER file (ASCII "aag" or binary "aig" format).
func ReadAIGER(r io.Reader) (*AIG, error) { return aiger.Read(r) }

// ReadAIGERFile parses the AIGER file at path.
func ReadAIGERFile(path string) (*AIG, error) { return aiger.ReadFile(path) }

// WriteAIGER writes g in AIGER format (binary when binary is true).
func WriteAIGER(w io.Writer, g *AIG, binary bool) error { return aiger.Write(w, g, binary) }

// WriteAIGERFile writes g to path, binary when the name ends in ".aig".
func WriteAIGERFile(path string, g *AIG) error { return aiger.WriteFile(path, g) }

// ReadSequentialAIGER parses an AIGER file that may contain latches and
// returns the latch-boundary-cut combinational view (pseudo-PI per latch
// output, pseudo-PO per next-state function) plus the latch count. Two
// sequential designs with the same state encoding are equivalent iff
// CheckEquivalence proves their cut views equivalent.
func ReadSequentialAIGER(r io.Reader) (*AIG, int, error) { return aiger.ReadSequential(r) }

// ReadSequentialAIGERFile is ReadSequentialAIGER over a file.
func ReadSequentialAIGERFile(path string) (*AIG, int, error) { return aiger.ReadSequentialFile(path) }

// ReadVerilog parses gate-level structural Verilog and elaborates the top
// module (or the named one when top is non-empty) into an AIG.
func ReadVerilog(r io.Reader, top string) (*AIG, error) {
	d, err := verilog.Parse(r)
	if err != nil {
		return nil, err
	}
	return d.Elaborate(top)
}

// WriteVerilog emits g as flat structural Verilog.
func WriteVerilog(w io.Writer, g *AIG) error { return verilog.Write(w, g) }

// ReadNetlistFile reads a circuit from path, choosing the format by
// extension: ".v" structural Verilog, anything else AIGER.
func ReadNetlistFile(path string) (*AIG, error) {
	if strings.HasSuffix(path, ".v") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := ReadVerilog(f, "")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return g, nil
	}
	return ReadAIGERFile(path)
}

// Generate builds a named benchmark circuit ("multiplier", "square",
// "sqrt", "hyp", "log2", "sin", "voter", "ac97_ctrl", "vga_lcd", "adder")
// at the given scale. See BenchmarkNames.
func Generate(name string, scale int) (*AIG, error) { return gen.Benchmark(name, scale) }

// BenchmarkNames lists the benchmark families of the paper's Table II.
func BenchmarkNames() []string { return gen.Names() }

// Optimize restructures g with the balance/rewrite/refactor script that
// stands in for ABC's resyn2, preserving every output function.
func Optimize(g *AIG) *AIG { return opt.Resyn2(g, nil) }

// Balance re-associates AND trees to reduce depth.
func Balance(g *AIG) *AIG { return opt.Balance(g) }

// Double returns two disjoint copies of g side by side (the enlargement
// the paper applies to its benchmarks), n times.
func Double(g *AIG, n int) *AIG { return aig.DoubleN(g, n) }

// BuildMiter builds the miter of two circuits with matching interfaces.
func BuildMiter(a, b *AIG) (*AIG, error) { return miter.Build(a, b) }

// Outcome is a CEC verdict, shared by every engine (see miter.Outcome).
type Outcome = miter.Outcome

// Verdicts of a check.
const (
	Undecided     = miter.Undecided
	Equivalent    = miter.Equivalent
	NotEquivalent = miter.NotEquivalent
)

// Engine selects the checking algorithm by name; Engines lists them all.
type Engine string

// Available engines. EngineHybrid is the two-stage run-level flow: the
// simulation engine reduces (and often fully proves) the miter, and SAT
// sweeping finishes whatever remains.
const (
	EngineHybrid    Engine = "hybrid"
	EngineSim       Engine = "sim"
	EngineSAT       Engine = "sat"
	EngineBDD       Engine = "bdd"
	EnginePortfolio Engine = "portfolio"
)

// EngineInfo is one row of the engine table (Engines), the single list of
// engines: CheckMiter runs them, the service admits exactly their names,
// the cec CLI offers them and the differential and chaos harnesses sweep
// them.
type EngineInfo struct {
	// Name selects the engine (Options.Engine, cec -engine, the service's
	// "engine" field).
	Name Engine
	// Complete marks an engine that decides every miter within its
	// budgets unless a fault or Options.Stop cuts it short; an incomplete
	// engine (sim alone) may settle Undecided by design.
	Complete bool
	run      func(m *AIG, o Options, dev *par.Device) Result
	// races enters the engine in the portfolio race.
	races bool
}

// engines is the engine table. The first row is the default that an empty
// Options.Engine selects. The racing rows enter the portfolio in table
// order with seeds Seed, Seed+1, ...; BDD, the last of them, draws no
// random patterns. init fills the table because runHybrid and
// runPortfolio refer back to it.
var engines []EngineInfo

func init() {
	engines = []EngineInfo{
		{Name: EngineHybrid, Complete: true, run: runHybrid, races: true},
		{Name: EngineSim, run: runSim},
		{Name: EngineSAT, Complete: true, run: runSAT, races: true},
		{Name: EngineBDD, Complete: true, run: runBDD, races: true},
		{Name: EnginePortfolio, Complete: true, run: runPortfolio},
	}
}

// Engines returns a copy of the engine table, the default engine
// (EngineHybrid) first.
func Engines() []EngineInfo { return append([]EngineInfo(nil), engines...) }

// LookupEngine returns the table row of the named engine, the default row
// for "", and false for a name the table does not list.
func LookupEngine(name Engine) (EngineInfo, bool) {
	if name == "" {
		return engines[0], true
	}
	for _, e := range engines {
		if e.Name == name {
			return e, true
		}
	}
	return EngineInfo{}, false
}

// Options configures a check. The zero value selects the hybrid engine
// with the paper's parameters on all CPUs.
type Options struct {
	// Engine picks the algorithm (default EngineHybrid).
	Engine Engine
	// Workers bounds the parallel device (0: all CPUs).
	Workers int
	// Dev supplies an existing parallel device for the check; nil creates
	// one sized by Workers. The portfolio engine ignores it (each racing
	// member needs its own pool).
	Dev *Device
	// Seed drives random simulation patterns.
	Seed int64
	// ConflictLimit bounds each SAT call of the sweeping backend
	// (0: unlimited — complete checking).
	ConflictLimit int64
	// SimConfig overrides the simulation engine parameters; nil selects
	// the paper's defaults.
	SimConfig *core.Config
	// Stop cancels a run cooperatively.
	Stop <-chan struct{}
	// Log, when non-nil, receives per-phase progress lines from the
	// simulation engine.
	Log io.Writer
	// Trace, when non-nil and enabled, records the check: engine phases,
	// simulator batches, per-worker kernel spans and SAT calls. The
	// tracer is attached to the device for the duration of the check, so
	// a shared Device must not run concurrent checks while one of them
	// is traced. Export with trace.WriteChromeTrace or
	// trace.WritePhaseReport. The portfolio engine does not trace its
	// racing members.
	Trace *Tracer
	// Faults, when armed (ParseFaults), injects deterministic faults into
	// every layer of the check — kernel panics in the device, stalled
	// simulation rounds, SAT resource blow-ups — to exercise the
	// graceful-degradation machinery. The injector is attached to the
	// device for the duration of the check (like Trace) and passed to the
	// engines. Nil (the default) disables every hook at zero cost.
	Faults *FaultInjector
	// PhaseBudget bounds each simulation-engine phase by wall clock; a
	// phase still running at the deadline is cancelled cooperatively and
	// the check degrades (Result.Degraded) instead of hanging. Zero
	// disables the watchdog. See core.Config.PhaseBudget; the engine's
	// per-phase work cap is internal and only its tests set it.
	PhaseBudget time.Duration
	// noFallback disables the hybrid flow's portfolio fallback step. It is
	// set internally for portfolio members so that a degraded member never
	// recursively launches another portfolio.
	noFallback bool
}

// FaultInjector re-exports the fault-injection registry (see
// internal/fault): a deterministic, seed-driven set of armed fault hooks.
// Create one with ParseFaults and pass it via Options.Faults.
type FaultInjector = fault.Injector

// ParseFaults compiles a fault spec into an injector. The grammar is
// "hook:param,param;hook:...", with params p= (probability), at= (exact
// visit), every= (period), limit= (fire cap) and delay= (stall duration);
// an entry with no params fires on every visit. Known hooks:
//
//	par.worker.panic      panic inside a parallel kernel chunk
//	sim.round.stall       stall an exhaustive-simulation round
//	satsweep.pair.oom     resource blow-up before a SAT pair query
//	service.runner.crash  crash a service runner picking up a job
//	cluster.worker.kill   kill a cluster worker node
//
// All randomness derives from seed, so a spec+seed pair provokes the same
// faults on every run.
func ParseFaults(spec string, seed int64) (*FaultInjector, error) {
	return fault.Parse(spec, seed)
}

// Tracer re-exports the trace recorder (see internal/trace). Create one
// with NewTracer, pass it via Options.Trace, and export the collected
// events after the check.
type Tracer = trace.Tracer

// NewTracer returns an enabled trace recorder holding up to capacity
// events (0: a default of 64k). Recording into a full tracer drops events
// and counts them (Tracer.Dropped).
func NewTracer(capacity int) *Tracer {
	t := trace.New(capacity)
	t.Enable()
	return t
}

// WriteChromeTrace exports a tracer's events as Chrome trace_event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, t *Tracer) error { return trace.WriteChromeTrace(w, t) }

// WritePhaseReport renders the phase breakdown of a traced check as a
// text table (the paper's Figure 6 view: per-phase runtime share and
// proof counts).
func WritePhaseReport(w io.Writer, t *Tracer) { trace.WritePhaseReport(w, t) }

// PhaseStat re-exports the engine's per-phase record.
type PhaseStat = core.PhaseStat

// ProvedPair re-exports the engine's proof-journal entry.
type ProvedPair = core.ProvedPair

// SimStats re-exports the simulation engine statistics.
type SimStats = core.Stats

// Result reports a check.
type Result struct {
	Outcome Outcome
	// Stopped reports that the check returned Undecided because
	// Options.Stop cancelled it (client cancellation or timeout), not
	// because the engine genuinely ran out of ideas.
	Stopped bool
	// Degraded reports that the check survived one or more internal faults
	// (kernel panics, watchdog trips, a crashed backend) by abandoning
	// work or falling back down the degradation ladder
	// sim → SAT → portfolio → Undecided. The Outcome is still trustworthy —
	// faulted work withdraws its verdicts rather than guess — but may be
	// weaker than a healthy run's.
	Degraded bool
	// Faults is the chain of survived faults, oldest first, in
	// human-readable form. Empty on a healthy run. For the portfolio
	// engine the chain holds whatever the racing members reported before
	// the winner returned, in nondeterministic order.
	Faults []string
	// CEX is a PI assignment separating the circuits (NotEquivalent).
	CEX []bool
	// Runtime is the wall-clock time of the whole check.
	Runtime time.Duration
	// EngineUsed names the engine that reached the verdict (for the
	// portfolio, the race winner).
	EngineUsed string

	// SimPhases and SimStats describe the simulation engine's run when
	// it participated (hybrid and sim engines).
	SimPhases []PhaseStat
	SimStats  *SimStats
	// Journal lists every equivalence the simulation engine proved, in
	// merge order — an audit trail of the sweep.
	Journal []ProvedPair
	// ReducedPercent is the miter reduction achieved before the final SAT
	// sweep (Table II's "Reduced (%)" for the sim engine). In the hybrid
	// flow it counts the POs that the PO-level SAT attempts between sweep
	// phases proved: their cones drop out of the miter, so a miter that an
	// attempt decides reads 100%.
	ReducedPercent float64
	// SATTime is the time spent in the hybrid flow's SAT backend: the
	// PO-level SAT attempts between sweep phases plus the final SAT sweep.
	SATTime time.Duration
	// Reduced is the final miter (empty when proved).
	Reduced *AIG
}

// CheckEquivalence checks two circuits with matching interfaces.
func CheckEquivalence(a, b *AIG, o Options) (Result, error) {
	m, err := miter.Build(a, b)
	if err != nil {
		return Result{}, err
	}
	return CheckMiter(m, o)
}

// CheckMiter decides whether every output of a miter is constant zero.
func CheckMiter(m *AIG, o Options) (Result, error) {
	start := time.Now()
	res, err := checkMiter(m, o)
	res.Runtime = time.Since(start)
	return res, err
}

func checkMiter(m *AIG, o Options) (Result, error) {
	e, ok := LookupEngine(o.Engine)
	if !ok {
		return Result{}, fmt.Errorf("simsweep: unknown engine %q", o.Engine)
	}
	dev := o.Dev
	if dev == nil {
		dev = par.NewDevice(o.Workers)
		defer dev.Close()
	}
	if o.Trace.Enabled() {
		dev.SetTracer(o.Trace)
		defer dev.SetTracer(nil)
	}
	if o.Faults != nil {
		dev.SetFaults(o.Faults)
		defer dev.SetFaults(nil)
	}
	return e.run(m, o, dev), nil
}

func (o Options) simConfig(dev *par.Device) core.Config {
	var cfg core.Config
	if o.SimConfig != nil {
		cfg = *o.SimConfig
	} else {
		cfg = core.DefaultConfig()
	}
	cfg.Dev = dev
	cfg.Seed = o.Seed
	if o.Stop != nil {
		cfg.Stop = o.Stop
	}
	if o.Log != nil {
		cfg.Log = o.Log
	}
	cfg.Trace = o.Trace
	cfg.Faults = o.Faults
	if o.PhaseBudget > 0 {
		cfg.PhaseBudget = o.PhaseBudget
	}
	return cfg
}

func runSim(m *AIG, o Options, dev *par.Device) Result {
	cr := core.CheckMiter(m, o.simConfig(dev))
	stats := cr.Stats
	return Result{
		Outcome:        cr.Outcome,
		Stopped:        cr.Stopped,
		Degraded:       cr.Degraded,
		Faults:         cr.Faults,
		CEX:            cr.CEX,
		EngineUsed:     "sim",
		SimPhases:      cr.Phases,
		SimStats:       &stats,
		Journal:        cr.Journal,
		ReducedPercent: stats.ReductionPercent(),
		Reduced:        cr.Reduced,
	}
}

func runSAT(m *AIG, o Options, dev *par.Device) Result {
	sr := satsweep.CheckMiter(m, satsweep.Options{
		Dev:           dev,
		ConflictLimit: o.ConflictLimit,
		Seed:          o.Seed,
		Stop:          o.Stop,
		Trace:         o.Trace,
		Faults:        o.Faults,
	})
	return Result{
		Outcome:    sr.Outcome,
		Stopped:    sr.Stopped,
		Degraded:   len(sr.Faults) > 0,
		Faults:     sr.Faults,
		CEX:        sr.CEX,
		EngineUsed: "sat",
		SATTime:    sr.Stats.Runtime,
		Reduced:    sr.Reduced,
	}
}

func runBDD(m *AIG, o Options, _ *par.Device) Result {
	equal, cex, err := bdd.CheckMiter(m, 0, o.Stop) // 0: the bdd default of 4M nodes
	r := Result{EngineUsed: "bdd", Reduced: m, Stopped: errors.Is(err, bdd.ErrStopped)}
	switch {
	case err != nil:
	case equal:
		r.Outcome = Equivalent
	default:
		r.Outcome = NotEquivalent
		r.CEX = cex
	}
	return r
}

// runHybrid is the paper's flow: the simulation engine first, then SAT
// sweeping on the reduced miter when something is left undecided. The
// engine's pattern bank (carrying every counter-example it found) seeds
// the SAT sweep, so disproved pairs are never re-proved (§V EC transfer).
//
// Between the engine's steps — after P+G, and after each L phase that
// merged something — hybrid makes a PO-level SAT attempt
// (satsweep.CheckPOs). Its budget is the live AND count of the miter it is
// asked on, in conflicts, charged only for the SAT calls that end with no
// answer: a proved PO, a proved pair or a model is free. The attempt asks
// the open POs on one incremental solver, each call limited to its share
// of the budget (the budget over the open POs), and at the first call that
// runs out of its share it sweeps the open cones into a FRAIG in
// topological order, each pair query limited by what is left of the
// budget, and asks the POs still open on the FRAIG. ConflictLimit, when
// set and smaller, caps every call. A PO whose call ended with no answer
// is asked after every other open PO in later attempts, so one PO that SAT
// cannot answer quickly does not eat the budget of the POs behind it. A
// model that fires a PO disproves the miter and all POs proved decide it;
// on a spent budget the POs proved and the nodes the sweep merged so far
// are merged, and the next L phase sweeps what is left. So an attempt
// spends at most one live-AND count of unanswered conflicts before the
// final SAT sweep, which stays complete at ConflictLimit 0. No clock
// enters the budget or the charge, so what an attempt proves depends on
// the miter and the seed alone, not on how fast the steps before it ran.
// The attempts are SAT time (Result.SATTime), not engine time.
//
// Under fault injection the flow is also the first two rungs of the
// degradation ladder: a degraded simulation phase falls through to SAT
// sweeping on whatever reduction survived, and a SAT sweep that itself
// degrades to Undecided falls back to a fresh portfolio race (unless this
// hybrid run is already a portfolio member). A faulted attempt is withdrawn
// and ends the attempts of the run.
func runHybrid(m *AIG, o Options, dev *par.Device) Result {
	satOpt := satsweep.Options{
		Dev:           dev,
		ConflictLimit: o.ConflictLimit,
		Seed:          o.Seed,
		Stop:          o.Stop,
		Trace:         o.Trace,
		Faults:        o.Faults,
	}
	var satTime time.Duration
	var stalled []int // POs an earlier attempt could not answer: asked last
	askPOs := func(after string, cur *AIG) (*AIG, []bool, []string) {
		budget := int64(miter.LiveAnds(cur))
		pr, unanswered, st := satsweep.CheckPOs(cur, satOpt, budget, stalled)
		stalled = st
		satTime += pr.Stats.Runtime
		if o.Log != nil {
			st := pr.Stats
			fmt.Fprintf(o.Log, "po-sat after %s: budget %d conflicts, unanswered %d, %d POs asked, %d proved; sweep: %d pairs asked, %d proved, %d disproved, %d structural merges: %s (%v)\n",
				after, budget, unanswered, st.POs.Asked, st.POs.Proved,
				st.Pairs.Asked, st.Pairs.Proved, st.Pairs.Disproved, st.Structural, pr.Outcome,
				st.Runtime.Round(time.Microsecond))
		}
		return pr.Reduced, pr.CEX, pr.Faults
	}
	cr := core.CheckMiterStepped(m, o.simConfig(dev), askPOs)
	stats := cr.Stats
	r := Result{
		Outcome:        cr.Outcome,
		Stopped:        cr.Stopped,
		Degraded:       cr.Degraded,
		Faults:         cr.Faults,
		CEX:            cr.CEX,
		EngineUsed:     "hybrid",
		SimPhases:      cr.Phases,
		SimStats:       &stats,
		Journal:        cr.Journal,
		ReducedPercent: stats.ReductionPercent(),
		SATTime:        satTime,
		Reduced:        cr.Reduced,
	}
	if r.Outcome != Undecided || r.Stopped {
		return r
	}
	satStart := time.Now()
	satOpt.SeedBank = cr.PatternBank
	sr := satsweep.CheckMiter(r.Reduced, satOpt)
	r.SATTime += time.Since(satStart)
	r.Outcome = sr.Outcome
	r.Stopped = sr.Stopped
	r.CEX = sr.CEX
	r.Reduced = sr.Reduced
	if len(sr.Faults) > 0 {
		r.Degraded = true
		r.Faults = append(r.Faults, sr.Faults...)
	}
	// Ladder step: the SAT rung degraded without a verdict — race the
	// remaining engines rather than give up. Portfolio members never take
	// this step (noFallback), so a faulty portfolio cannot recurse.
	if r.Outcome == Undecided && !r.Stopped && len(sr.Faults) > 0 && !o.noFallback {
		pr := runPortfolio(m, o, nil)
		pr.Degraded = true
		pr.Faults = append(r.Faults, pr.Faults...)
		pr.EngineUsed = "hybrid→" + pr.EngineUsed
		return pr
	}
	return r
}

// runPortfolio races the engine table's portfolio members — the hybrid
// flow, standalone SAT sweeping and the BDD engine — first definitive
// verdict wins: the execution model the paper attributes to commercial
// multi-engine checkers. Each member gets a fresh fault-armed device, an
// Options.Stop merged with the portfolio's own loser-cancellation channel,
// and no tracer; a hybrid member never falls back to a nested portfolio
// (noFallback).
//
// Injected faults exercise the members independently; a member that
// degrades to Undecided simply loses the race. The fault collector is
// mutex-guarded because portfolio.Check returns at the first verdict while
// loser goroutines are still running — faults they report after the
// winner returns are lost, which is fine: the chain is diagnostic, not
// load-bearing.
func runPortfolio(m *AIG, o Options, _ *par.Device) Result {
	var fmu sync.Mutex
	var faults []string
	var members []portfolio.Engine
	for _, e := range engines {
		if !e.races {
			continue
		}
		oo := o
		oo.Seed = o.Seed + int64(len(members))
		oo.Dev, oo.Trace, oo.noFallback = nil, nil, true
		members = append(members, portfolio.Engine{
			Name: string(e.Name),
			Run: func(mm *AIG, stop <-chan struct{}) (Outcome, []bool) {
				oo := oo
				oo.Stop = mergeStop(stop, o.Stop)
				dev := par.NewDevice(o.Workers)
				defer dev.Close()
				if o.Faults != nil {
					dev.SetFaults(o.Faults)
				}
				r := e.run(mm, oo, dev)
				addFaults(&fmu, &faults, r.Faults)
				return r.Outcome, r.CEX
			},
		})
	}
	pr := portfolio.Check(m, members)
	fmu.Lock()
	chain := append([]string(nil), faults...)
	fmu.Unlock()
	return Result{
		Outcome:    pr.Outcome,
		Stopped:    pr.Outcome == Undecided && par.Stopped(o.Stop),
		Degraded:   len(chain) > 0,
		Faults:     chain,
		CEX:        pr.CEX,
		EngineUsed: "portfolio/" + pr.Engine,
		Reduced:    m,
	}
}

// addFaults appends a member's fault chain to the portfolio's collector
// under its mutex.
func addFaults(mu *sync.Mutex, dst *[]string, src []string) {
	if len(src) == 0 {
		return
	}
	mu.Lock()
	*dst = append(*dst, src...)
	mu.Unlock()
}

// mergeStop returns a channel closed as soon as either input closes. An
// input that is already closed is returned as is, so a member of a
// portfolio started after its stop sees it at once rather than after the
// forwarding goroutine runs. The portfolio always closes its own channel
// when Check returns, so that goroutine cannot leak.
func mergeStop(a, b <-chan struct{}) <-chan struct{} {
	switch {
	case b == nil || par.Stopped(a):
		return a
	case a == nil || par.Stopped(b):
		return b
	}
	out := make(chan struct{})
	go func() {
		select {
		case <-a:
		case <-b:
		}
		close(out)
	}()
	return out
}
