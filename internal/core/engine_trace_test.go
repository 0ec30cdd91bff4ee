package core

import (
	"bytes"
	"testing"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/opt"
	"simsweep/internal/trace"
)

// TestTraceMatchesPhaseStats runs traced checks and verifies that the
// reconstructed phase report is exactly the engine's own Result.Phases —
// the invariant that makes the trace a trustworthy Figure 6 source — on an
// equivalent miter that runs every phase and on a non-equivalent one that
// the random sweep opening the P phase disproves.
func TestTraceMatchesPhaseStats(t *testing.T) {
	g, err := gen.Multiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	bad := g.Copy()
	bad.SetPO(5, bad.PO(5).Not())
	for _, tc := range []struct {
		name string
		m    *aig.AIG
		want Outcome
	}{
		{"eq", mustMiter(t, g, opt.Resyn2(g, nil)), Equivalent},
		{"neq", mustMiter(t, g, bad), NotEquivalent},
	} {
		t.Run(tc.name, func(t *testing.T) { checkTraceMatchesPhaseStats(t, tc.m, tc.want) })
	}
}

func checkTraceMatchesPhaseStats(t *testing.T, m *aig.AIG, want Outcome) {
	tr := trace.New(0)
	tr.Enable()
	cfg := smallConfig()
	cfg.Trace = tr
	// Generous watchdog budgets: arming the watchdog machinery must not
	// perturb the phase accounting the trace is reconciled against.
	cfg.PhaseBudget = time.Minute
	cfg.PhaseWorkBudget = 1 << 40
	res := CheckMiter(m, cfg)
	tr.Disable()
	if res.Degraded {
		t.Fatalf("run degraded under generous budgets: %v", res.Faults)
	}
	if res.Outcome != want {
		t.Fatalf("outcome = %v, want %v", res.Outcome, want)
	}
	if want == NotEquivalent && (len(res.Phases) != 1 || res.Phases[0].Disproved != 1 || res.Stats.WordsSimulated != 0) {
		t.Fatalf("disproof not taken by the P-phase sweep: phases %+v, %d words simulated",
			res.Phases, res.Stats.WordsSimulated)
	}

	rows := trace.PhaseRows(tr)
	if len(rows) != len(res.Phases) {
		t.Fatalf("trace has %d phase rows, engine ran %d phases", len(rows), len(res.Phases))
	}
	for i, row := range rows {
		ph := res.Phases[i]
		if row.Kind != ph.Kind.String() {
			t.Fatalf("row %d kind = %q, want %q", i, row.Kind, ph.Kind)
		}
		if row.Checked != int64(ph.Checked) || row.Proved != int64(ph.Proved) ||
			row.Disproved != int64(ph.Disproved) || row.Ands != int64(ph.AndsAfter) {
			t.Fatalf("row %d = %+v, phase stat = %+v", i, row, ph)
		}
	}

	// The whole-run span carries the Stats totals.
	var engineSpans int
	for _, e := range tr.Events() {
		if e.Kind != trace.KindSpan || e.Cat != trace.CatEngine {
			continue
		}
		engineSpans++
		for _, want := range []struct {
			key string
			val int64
		}{
			{"initial_ands", int64(res.Stats.InitialAnds)},
			{"final_ands", int64(res.Stats.FinalAnds)},
			{"rounds", int64(res.Stats.Rounds)},
			{"words_simulated", res.Stats.WordsSimulated},
		} {
			found := false
			for _, a := range e.Args[:e.NArg] {
				if a.Key == want.key {
					found = true
					if a.Val != want.val {
						t.Fatalf("engine span %s = %d, want %d", want.key, a.Val, want.val)
					}
				}
			}
			if !found {
				t.Fatalf("engine span missing arg %q", want.key)
			}
		}
	}
	if engineSpans != 1 {
		t.Fatalf("engine spans = %d, want 1", engineSpans)
	}

	// The rendered report and the Chrome export must both be producible
	// from the same tracer.
	var report, chrome bytes.Buffer
	trace.WritePhaseReport(&report, tr)
	if err := trace.WriteChromeTrace(&chrome, tr); err != nil {
		t.Fatal(err)
	}
	if report.Len() == 0 || chrome.Len() == 0 {
		t.Fatal("empty export")
	}
}

// TestUntracedRunRecordsNothing guards the default path: a config without
// a tracer must not record (and must not crash on the nil plumbing).
func TestUntracedRunRecordsNothing(t *testing.T) {
	g, err := gen.Adder(6)
	if err != nil {
		t.Fatal(err)
	}
	m := mustMiter(t, g, opt.Balance(g))
	res := CheckMiter(m, smallConfig())
	if res.Outcome != Equivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}
