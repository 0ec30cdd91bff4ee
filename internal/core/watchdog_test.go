package core

import (
	"strings"
	"testing"
	"time"

	"simsweep/internal/fault"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
)

// TestPhaseFinishingAtBudgetNotDegraded pins the watchdog's accounting rule:
// a phase that completes its work without ever observing the trip — even
// when the timer has long since fired — is NOT degraded. The budget bounds
// abandonment, it is not a stopwatch on the phase's duration.
func TestPhaseFinishingAtBudgetNotDegraded(t *testing.T) {
	cfg := smallConfig()
	cfg.PhaseBudget = time.Millisecond
	e := &engine{cfg: &cfg}
	ran := false
	ok := e.runPhase(PhaseP, func() {
		// Overstay the budget tenfold, but finish without polling stopped():
		// the phase did all its work.
		time.Sleep(10 * time.Millisecond)
		ran = true
	})
	if !ran || !ok {
		t.Fatalf("ran=%v ok=%v: an unobserved timer fire must not abort the phase", ran, ok)
	}
	if e.res.Degraded || len(e.res.Faults) != 0 {
		t.Fatalf("degraded=%v faults=%v: phase finishing over budget without abandoning work was penalised", e.res.Degraded, e.res.Faults)
	}
}

// TestPhaseObservingTripDegrades is the counterpart: a phase that polls the
// cancellation points and sees the watchdog trip abandons work, and exactly
// one wall-clock fault lands in the chain.
func TestPhaseObservingTripDegrades(t *testing.T) {
	cfg := smallConfig()
	cfg.PhaseBudget = 5 * time.Millisecond
	e := &engine{cfg: &cfg}
	polls := 0
	ok := e.runPhase(PhaseG, func() {
		for !e.stopped() {
			polls++
			time.Sleep(time.Millisecond)
		}
	})
	if ok {
		t.Fatal("runPhase reported clean completion after an observed trip")
	}
	if !e.res.Degraded || len(e.res.Faults) != 1 {
		t.Fatalf("degraded=%v faults=%v, want exactly one watchdog fault", e.res.Degraded, e.res.Faults)
	}
	if f := e.res.Faults[0]; !strings.Contains(f, "wall-clock") || !strings.Contains(f, "phase G") {
		t.Fatalf("fault %q does not name the wall-clock watchdog and the phase", f)
	}
	if polls == 0 {
		t.Fatal("phase body never ran")
	}
}

// TestWorkBudgetDegradesNeverWrong: an absurdly small work budget starves
// every phase of simulation effort. The run must degrade to Undecided —
// never claim NotEquivalent on an equivalent miter.
func TestWorkBudgetDegradesNeverWrong(t *testing.T) {
	// A multiplier-vs-resyn2 miter: not collapsed by strashing, so the
	// phases genuinely run (an adder miter proves at strash time and would
	// never consult the budget).
	g, err := gen.Multiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	m := mustMiter(t, g, opt.Resyn2(g, nil))
	cfg := smallConfig()
	cfg.phaseWorkBudget = 1
	res := CheckMiter(m, cfg)
	if res.Outcome == miter.NotEquivalent {
		t.Fatal("work-starved run reported NOT equivalent on an equivalent miter")
	}
	if !res.Degraded || len(res.Faults) == 0 {
		t.Fatalf("degraded=%v faults=%v, want a recorded work-budget trip", res.Degraded, res.Faults)
	}
	if !strings.Contains(res.Faults[0], "work budget") {
		t.Fatalf("fault %q does not name the work budget", res.Faults[0])
	}
}

// TestGenerousBudgetsLeaveRunHealthy: budgets far above the run's needs must
// change nothing — same verdict, no degradation, no fault chain.
func TestGenerousBudgetsLeaveRunHealthy(t *testing.T) {
	g, err := gen.Multiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	m := mustMiter(t, g, opt.Resyn2(g, nil))
	cfg := smallConfig()
	cfg.PhaseBudget = time.Minute
	cfg.phaseWorkBudget = 1 << 40
	res := CheckMiter(m, cfg)
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v, want equivalent", res.Outcome)
	}
	if res.Degraded || len(res.Faults) != 0 {
		t.Fatalf("degraded=%v faults=%v on a run far under budget", res.Degraded, res.Faults)
	}
}

// TestStallInjectionTripsWatchdog wires the pieces together: an injected
// sim.round.stall longer than the phase budget must be caught by the
// watchdog and degrade the run instead of hanging it, and the verdict stays
// correct-or-undecided.
func TestStallInjectionTripsWatchdog(t *testing.T) {
	g, err := gen.Multiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	m := mustMiter(t, g, opt.Resyn2(g, nil))
	cfg := smallConfig()
	cfg.PhaseBudget = 10 * time.Millisecond
	cfg.Faults = fault.MustParse("sim.round.stall:every=1,delay=100ms", 1)
	done := make(chan Result, 1)
	go func() { done <- CheckMiter(m, cfg) }()
	select {
	case res := <-done:
		if res.Outcome == miter.NotEquivalent {
			t.Fatal("stalled run reported NOT equivalent on an equivalent miter")
		}
		if !res.Degraded {
			t.Fatalf("stall past the phase budget did not degrade the run (faults=%v)", res.Faults)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stalled run hung: watchdog never cancelled the phase")
	}
}
