package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Emission conventions shared between the engines and the exporters: the
// core engine records one CatPhase span per executed P/G/L phase (args:
// checked, proved, disproved, ands) and one CatEngine span "core.check" per
// stretch of engine work, the whole run unless a step hook split it (args:
// initial_ands, final_ands), which is what WritePhaseReport
// reconstructs the Figure 6 table from.
const (
	// CatPhase is the category of the per-phase spans of the core engine.
	CatPhase = "phase"
	// CatEngine is the category of the engine's run spans (core.check).
	CatEngine = "engine"
	// CatSim is the category of the exhaustive/partial simulator spans.
	CatSim = "sim"
	// CatKernel is the category of the per-worker device task spans.
	CatKernel = "kernel"
	// CatSAT is the category of the SAT sweeping backend's solver spans.
	CatSAT = "sat"
	// CatCuts is the category of the cut generator's per-pass spans (args:
	// pass, nodes, strata, pairs). Phase spans have no argument capacity
	// left for cut-enumeration stats, so the generator records its own
	// control-track span per pass instead.
	CatCuts = "cuts"
)

// PhaseRow is one reconstructed row of the Figure 6 table.
type PhaseRow struct {
	Kind      string // "P", "G" or "L"
	Start     time.Duration
	Duration  time.Duration
	Checked   int64
	Proved    int64 // merges applied by the phase
	Disproved int64
	Ands      int64 // AND nodes remaining after the phase
}

// argOf returns the named argument of an event, or def when absent.
func argOf(e Event, key string, def int64) int64 {
	for _, a := range e.Args[:e.NArg] {
		if a.Key == key {
			return a.Val
		}
	}
	return def
}

// PhaseRows flushes the tracer and extracts the per-phase table rows from
// its CatPhase spans, in execution order.
func PhaseRows(t *Tracer) []PhaseRow {
	var rows []PhaseRow
	events := t.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	for _, e := range events {
		if e.Kind != KindSpan || e.Cat != CatPhase {
			continue
		}
		rows = append(rows, PhaseRow{
			Kind:      e.Name,
			Start:     time.Duration(e.TS),
			Duration:  time.Duration(e.Dur),
			Checked:   argOf(e, "checked", 0),
			Proved:    argOf(e, "proved", 0),
			Disproved: argOf(e, "disproved", 0),
			Ands:      argOf(e, "ands", -1),
		})
	}
	return rows
}

// WritePhaseReport renders the per-phase breakdown of the traced run —
// the paper's Figure 6 runtime split plus the node-reduction curve — as a
// text table: one row per executed phase (kind, duration, share of total
// phase time, checks, merges, disproofs, ANDs remaining) and a totals
// row. The numbers are the same values the engine reports in
// core.Result.Phases; a run that recorded no phase spans (tracing off, or
// a non-simulation engine) yields an explanatory line instead.
func WritePhaseReport(w io.Writer, t *Tracer) {
	rows := PhaseRows(t)
	if len(rows) == 0 {
		fmt.Fprintln(w, "no phase spans recorded (was tracing enabled and the sim/hybrid engine used?)")
		return
	}
	var total PhaseRow
	total.Kind = "total"
	total.Ands = rows[len(rows)-1].Ands
	for _, r := range rows {
		total.Duration += r.Duration
		total.Checked += r.Checked
		total.Proved += r.Proved
		total.Disproved += r.Disproved
	}
	fmt.Fprintf(w, "%-6s %12s %7s %9s %9s %10s %10s\n",
		"phase", "duration", "%", "checked", "proved", "disproved", "ands-left")
	pct := func(d time.Duration) float64 {
		if total.Duration == 0 {
			return 0
		}
		return 100 * float64(d) / float64(total.Duration)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %12s %6.1f%% %9d %9d %10d %10d\n",
			r.Kind, r.Duration.Round(time.Microsecond), pct(r.Duration),
			r.Checked, r.Proved, r.Disproved, r.Ands)
	}
	fmt.Fprintf(w, "%-6s %12s %6.1f%% %9d %9d %10d %10d\n",
		total.Kind, total.Duration.Round(time.Microsecond), pct(total.Duration),
		total.Checked, total.Proved, total.Disproved, total.Ands)

	// The engine's core.check spans, when present, anchor the table to the
	// core.Stats totals: the engine's time and the AND counts of the miter
	// it started and ended with. A run that paused for step hooks (hybrid's
	// PO-level SAT attempts) has one span per stretch of engine work.
	var parts []Event
	for _, e := range t.Events() {
		if e.Kind == KindSpan && e.Cat == CatEngine && e.Name == "core.check" {
			parts = append(parts, e)
		}
	}
	if len(parts) == 0 {
		return
	}
	// One engine run records its stretches through one control-track
	// buffer, so they arrive in order.
	var engine time.Duration
	for _, e := range parts {
		engine += time.Duration(e.Dur)
	}
	fmt.Fprintf(w, "engine %12s         initial ands %d, final ands %d\n",
		engine.Round(time.Microsecond),
		argOf(parts[0], "initial_ands", -1), argOf(parts[len(parts)-1], "final_ands", -1))
}
