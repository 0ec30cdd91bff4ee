package simsweep_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"simsweep"
	"simsweep/internal/core"
	"simsweep/internal/difftest"
	"simsweep/internal/fault"
	"simsweep/internal/gen"
)

// controlMiter builds an ac97-style control fabric of the given width
// against its resyn2 version, mutated when mutate is non-nil: the shape on
// which the L loop alone proves little per phase and hybrid's PO-level SAT
// attempts decide the miter early.
func controlMiter(t *testing.T, words int, mutate func(*simsweep.AIG) *simsweep.AIG) *simsweep.AIG {
	t.Helper()
	g, err := gen.Control(gen.StyleAC97, words, 97)
	if err != nil {
		t.Fatal(err)
	}
	o := simsweep.Optimize(g)
	if mutate != nil {
		o = mutate(o)
	}
	m, err := simsweep.BuildMiter(g, o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// lPhases returns the L phases of a result's simulation run.
func lPhases(r simsweep.Result) []simsweep.PhaseStat {
	var out []simsweep.PhaseStat
	for _, ph := range r.SimPhases {
		if ph.Kind == core.PhaseL {
			out = append(out, ph)
		}
	}
	return out
}

// TestHybridAsksPOsBetweenSweepPhases pins the interleave on an EQ control
// fabric: hybrid spends SAT time before the L loop reaches its fixpoint
// and so runs fewer L phases than the sim engine, which still sweeps to
// its fixpoint (a last L phase that merges nothing).
func TestHybridAsksPOsBetweenSweepPhases(t *testing.T) {
	m := controlMiter(t, 8, nil)
	hy, err := simsweep.CheckMiter(m, simsweep.Options{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hy.Outcome != simsweep.Equivalent || hy.Degraded {
		t.Fatalf("hybrid: outcome %v, degraded %v (%v)", hy.Outcome, hy.Degraded, hy.Faults)
	}
	if hy.SATTime <= 0 {
		t.Fatalf("hybrid: SATTime = %v, want > 0", hy.SATTime)
	}
	sim, err := simsweep.CheckMiter(m, simsweep.Options{Engine: simsweep.EngineSim, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Outcome == simsweep.NotEquivalent {
		t.Fatalf("sim: outcome %v on an EQ miter", sim.Outcome)
	}
	simL := lPhases(sim)
	if len(simL) == 0 || simL[len(simL)-1].Proved != 0 {
		t.Fatalf("sim: L loop did not run to its fixpoint: %+v", simL)
	}
	if hyL := lPhases(hy); len(hyL) >= len(simL) {
		t.Fatalf("hybrid ran %d L phases, sim %d: want fewer", len(hyL), len(simL))
	}
}

// TestHybridDisprovesPastP checks a witnessed NEQ that the P phase's
// random sweep misses (one flipped gate of the fabric; the sim engine alone
// ends Undecided on it): hybrid disproves it and its counter-example
// replays on the miter.
func TestHybridDisprovesPastP(t *testing.T) {
	m := controlMiter(t, 8, func(o *simsweep.AIG) *simsweep.AIG {
		mut, ok := difftest.MutateGateFlip(o, rand.New(rand.NewSource(1)))
		if !ok {
			t.Fatal("no gate to flip")
		}
		return mut
	})
	res, err := simsweep.CheckMiter(m, simsweep.Options{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != simsweep.NotEquivalent {
		t.Fatalf("outcome %v, want not equivalent", res.Outcome)
	}
	if len(res.SimPhases) < 2 {
		t.Fatalf("decided in P (%d phases): the case no longer gets past P", len(res.SimPhases))
	}
	fired := false
	for _, v := range m.Eval(res.CEX) {
		fired = fired || v
	}
	if len(res.CEX) != m.NumPIs() || !fired {
		t.Fatalf("counter-example %v does not fire the miter", res.CEX)
	}
}

// TestHybridAttemptFaultsNeverFlip arms the SAT blow-up on every query: each
// PO-level attempt and the final sweep fault, and the ladder falls back to
// the portfolio. The check may lose its verdict, never flip it. The fabric
// is 5 words wide, where the portfolio's BDD member decides in a fraction
// of a second (at 8 words it gives up after about 12 s).
func TestHybridAttemptFaultsNeverFlip(t *testing.T) {
	m := controlMiter(t, 5, nil)
	in, err := simsweep.ParseFaults("satsweep.pair.oom:every=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simsweep.CheckMiter(m, simsweep.Options{Workers: 2, Seed: 1, Faults: in})
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case res.Outcome == simsweep.Equivalent:
	case res.Outcome == simsweep.Undecided && res.Degraded:
	default:
		t.Fatalf("outcome %v, degraded %v, want equivalent or degraded undecided", res.Outcome, res.Degraded)
	}
	if !res.Degraded || len(res.Faults) == 0 {
		t.Fatalf("every SAT query faulted but the result is not degraded: %v", res.Faults)
	}
}

// TestHybridAttemptsIgnoreSimulationSpeed checks that hybrid's PO-level SAT
// attempts are budgeted in conflicts, not in the time of the steps before
// them: on the vga-w7 control fabric, the attempt log (per attempt: the
// step it follows, its budget and charge, the POs asked and proved, and
// its outcome) is the same when every exhaustive-simulation round is
// stalled by 20 ms. A budget drawn from the step's wall time would grow
// with the stall.
func TestHybridAttemptsIgnoreSimulationSpeed(t *testing.T) {
	g, err := gen.Control(gen.StyleVGA, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := simsweep.BuildMiter(g, simsweep.Optimize(g))
	if err != nil {
		t.Fatal(err)
	}
	attempts := func(faults *simsweep.FaultInjector) []string {
		var log strings.Builder
		res, err := simsweep.CheckMiter(m, simsweep.Options{Workers: 2, Seed: 1, Faults: faults, Log: &log})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != simsweep.Equivalent || res.Degraded {
			t.Fatalf("outcome %v, degraded %v (%v)", res.Outcome, res.Degraded, res.Faults)
		}
		var out []string
		for _, line := range strings.Split(log.String(), "\n") {
			if strings.HasPrefix(line, "po-sat after ") {
				// The attempt's wall time, the last field, is not part of
				// its outcome.
				out = append(out, line[:strings.LastIndex(line, " (")])
			}
		}
		return out
	}
	plain := attempts(nil)
	stall, err := simsweep.ParseFaults("sim.round.stall:delay=20ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	stalled := attempts(stall)
	if len(plain) == 0 || !slices.Equal(plain, stalled) {
		t.Fatalf("attempt logs differ:\nplain:\n%s\nstalled rounds:\n%s", strings.Join(plain, "\n"), strings.Join(stalled, "\n"))
	}
	if stall.Counts()[fault.HookSimStall] == 0 {
		t.Fatal("no simulation round stalled")
	}
}
