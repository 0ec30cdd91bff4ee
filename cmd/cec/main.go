// Command cec checks the combinational equivalence of two AIGER netlists
// (or decides a single miter) with any engine of the simsweep engine
// table: the simulation-based sweeping engine, the SAT sweeping baseline,
// the BDD engine, the hybrid sim+SAT flow or a portfolio race.
//
// Usage:
//
//	cec [-engine name] a.aig b.aig
//	cec -miter m.aig
//	cec -trace out.json -phase-report a.aig b.aig
//
// Exit status: 0 equivalent, 1 not equivalent, 2 undecided or error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"simsweep"
	"simsweep/internal/core"
	"simsweep/internal/fault"
)

func main() {
	os.Exit(run())
}

func run() int {
	var names []string
	for _, e := range simsweep.Engines() {
		names = append(names, string(e.Name))
	}
	engine := flag.String("engine", names[0], "checking engine: "+strings.Join(names, ", "))
	miterPath := flag.String("miter", "", "check a prebuilt miter instead of two circuits")
	seq := flag.Bool("seq", false, "treat AIGER inputs as sequential: cut at the latch boundary")
	dump := flag.String("dump", "", "write the final (reduced) miter to this AIGER file")
	workers := flag.Int("workers", 0, "parallel workers (0: all CPUs)")
	seed := flag.Int64("seed", 1, "random simulation seed")
	conflicts := flag.Int64("C", 0, "SAT conflict limit per call (0: unlimited)")
	timeout := flag.Duration("timeout", 0, "bound the whole run; a timed-out check exits with status 2 (0: no limit)")
	verbose := flag.Bool("v", false, "print per-phase statistics, and a progress line per engine phase and PO-level SAT attempt on stderr")
	tracePath := flag.String("trace", "", "record an execution trace and write it as Chrome trace_event JSON to this file (load in Perfetto)")
	phaseReport := flag.Bool("phase-report", false, "print the traced phase breakdown table (implies tracing)")
	faults := flag.String("faults", "", "inject faults: 'hook:p=0.1,at=3,every=2,limit=1,delay=5ms;...' (hooks: "+strings.Join(fault.Hooks(), ", ")+")")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault hooks")
	phaseBudget := flag.Duration("phase-budget", 0, "wall-clock watchdog per simulation phase; a phase over budget is cancelled and the check degrades (0: off)")
	cutK := flag.Int("cut-k", 0, "max cut size k_l for local function checking (0: paper default 8)")
	cutC := flag.Int("cut-c", 0, "priority cuts kept per node (0: paper default 8)")
	cutBudget := flag.Int("cut-budget", 0, "candidate cuts enumerated per node before selection (0: 4×cut-c)")
	flag.Parse()

	opts := simsweep.Options{
		Engine:        simsweep.Engine(*engine),
		Workers:       *workers,
		Seed:          *seed,
		ConflictLimit: *conflicts,
		PhaseBudget:   *phaseBudget,
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	if *cutK > 0 || *cutC > 0 || *cutBudget > 0 {
		// The cut parameters live in the sim-engine config; start from the
		// defaults so overriding one knob keeps the rest at paper values.
		cfg := core.DefaultConfig()
		if *cutK > 0 {
			cfg.Kl = *cutK
		}
		if *cutC > 0 {
			cfg.C = *cutC
		}
		if *cutBudget > 0 {
			cfg.CutBudget = *cutBudget
		}
		opts.SimConfig = &cfg
	}
	if *faults != "" {
		in, ferr := simsweep.ParseFaults(*faults, *faultSeed)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "cec:", ferr)
			return 2
		}
		opts.Faults = in
	}
	if *tracePath != "" || *phaseReport {
		opts.Trace = simsweep.NewTracer(0)
	}
	if *timeout > 0 {
		stop := make(chan struct{})
		timer := time.AfterFunc(*timeout, func() { close(stop) })
		defer timer.Stop()
		opts.Stop = stop
	}

	var res simsweep.Result
	var err error
	switch {
	case *miterPath != "":
		if flag.NArg() != 0 {
			return usage()
		}
		var m *simsweep.AIG
		if m, err = simsweep.ReadNetlistFile(*miterPath); err == nil {
			fmt.Printf("miter: %s\n", m.Stats())
			res, err = simsweep.CheckMiter(m, opts)
		}
	case flag.NArg() == 2:
		var a, b *simsweep.AIG
		if *seq {
			var la, lb int
			if a, la, err = simsweep.ReadSequentialAIGERFile(flag.Arg(0)); err != nil {
				break
			}
			if b, lb, err = simsweep.ReadSequentialAIGERFile(flag.Arg(1)); err != nil {
				break
			}
			if la != lb {
				err = fmt.Errorf("latch counts differ: %d vs %d (state encodings must match)", la, lb)
				break
			}
			fmt.Printf("latch-boundary cut: %d latches\n", la)
		} else {
			if a, err = simsweep.ReadNetlistFile(flag.Arg(0)); err != nil {
				break
			}
			if b, err = simsweep.ReadNetlistFile(flag.Arg(1)); err != nil {
				break
			}
		}
		fmt.Printf("a: %s\nb: %s\n", a.Stats(), b.Stats())
		res, err = simsweep.CheckEquivalence(a, b, opts)
	default:
		return usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cec:", err)
		return 2
	}
	if res.Stopped {
		fmt.Fprintf(os.Stderr, "cec: timed out after %v (undecided)\n", *timeout)
		return 2
	}

	fmt.Printf("verdict: %s (engine %s, %v)\n", res.Outcome, res.EngineUsed, res.Runtime.Round(1e6))
	if res.Degraded {
		fmt.Printf("degraded: survived %d fault(s)\n", len(res.Faults))
		for _, f := range res.Faults {
			fmt.Printf("  fault: %s\n", f)
		}
	}
	if res.SimStats != nil {
		fmt.Printf("sim engine: reduced %.1f%% of the miter", res.ReducedPercent)
		if res.SATTime > 0 {
			// Hybrid's PO-level SAT attempts are part of the SAT time, and
			// the POs they proved part of the reduction.
			fmt.Printf(" (POs proved by PO-level SAT included); SAT backend took %v", res.SATTime.Round(1e6))
		}
		fmt.Println()
	}
	if *verbose {
		for _, ph := range res.SimPhases {
			fmt.Printf("  phase %s: %6d checked %6d proved %6d disproved  %v  (%d ANDs left)\n",
				ph.Kind, ph.Checked, ph.Proved, ph.Disproved, ph.Duration.Round(1e6), ph.AndsAfter)
		}
		if len(res.Journal) > 0 {
			fmt.Printf("  proof journal: %d merges", len(res.Journal))
			byPhase := map[string]int{}
			for _, e := range res.Journal {
				byPhase[e.Phase.String()]++
			}
			for _, k := range []string{"P", "G", "L"} {
				if byPhase[k] > 0 {
					fmt.Printf("  %s=%d", k, byPhase[k])
				}
			}
			fmt.Println()
		}
	}
	if opts.Trace != nil {
		opts.Trace.Disable()
		if *phaseReport {
			fmt.Println("phase report:")
			simsweep.WritePhaseReport(os.Stdout, opts.Trace)
		}
		if *tracePath != "" {
			f, werr := os.Create(*tracePath)
			if werr == nil {
				werr = simsweep.WriteChromeTrace(f, opts.Trace)
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, "cec: trace:", werr)
			} else {
				fmt.Printf("trace written to %s (%d events", *tracePath, opts.Trace.Len())
				if d := opts.Trace.Dropped(); d > 0 {
					fmt.Printf(", %d dropped", d)
				}
				fmt.Println(")")
			}
		}
	}
	if *dump != "" && res.Reduced != nil {
		if werr := simsweep.WriteAIGERFile(*dump, res.Reduced); werr != nil {
			fmt.Fprintln(os.Stderr, "cec: dump:", werr)
		} else {
			fmt.Printf("reduced miter written to %s (%s)\n", *dump, res.Reduced.Stats())
		}
	}
	if res.Outcome == simsweep.NotEquivalent && res.CEX != nil {
		fmt.Print("counter-example:")
		for i, v := range res.CEX {
			if i >= 64 {
				fmt.Printf(" … (%d inputs total)", len(res.CEX))
				break
			}
			if v {
				fmt.Print(" 1")
			} else {
				fmt.Print(" 0")
			}
		}
		fmt.Println()
	}
	switch res.Outcome {
	case simsweep.Equivalent:
		return 0
	case simsweep.NotEquivalent:
		return 1
	}
	return 2
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: cec [flags] a.aig b.aig   |   cec [flags] -miter m.aig")
	flag.PrintDefaults()
	return 2
}
