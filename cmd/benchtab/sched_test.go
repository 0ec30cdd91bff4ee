package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func forcedRun(engine string, took time.Duration, budgeted bool) schedRun {
	return schedRun{Engine: engine, TimeNS: took.Nanoseconds(), Budgeted: budgeted}
}

func TestSummariseForced(t *testing.T) {
	row := schedFamilyRow{
		Adaptive: schedRun{TimeNS: (100 * time.Millisecond).Nanoseconds()},
		Forced: []schedRun{
			forcedRun("sim", 200*time.Millisecond, false),
			forcedRun("sat", 50*time.Millisecond, false),
			forcedRun("bdd", time.Second, true),
		},
	}
	s := summariseForced(&row)
	if !s.hasBest || row.BestForced == nil || *row.BestForced != "sat" || s.bestNS != (50*time.Millisecond).Nanoseconds() {
		t.Fatalf("best = %v %v, want sat at 50ms", row.BestForced, s)
	}
	if row.VsBest == nil || *row.VsBest != 2 {
		t.Fatalf("adaptive_over_best = %v, want 2", row.VsBest)
	}
	if row.WorstForced != "bdd" || !s.worstCut || row.SpeedupWorst != 10 {
		t.Fatalf("worst = %s cut=%v speedup %v, want bdd, cut, 10", row.WorstForced, s.worstCut, row.SpeedupWorst)
	}
}

// TestSummariseForcedAllBudgeted is the row whose every forced baseline
// exceeded the budget: it has no best, so its best column and
// adaptive_over_best are null in the report, not "" and 0, and its worst
// time is a lower bound.
func TestSummariseForcedAllBudgeted(t *testing.T) {
	row := schedFamilyRow{
		Family:   "vga_lcd_1xd",
		Adaptive: schedRun{TimeNS: (4 * time.Second).Nanoseconds()},
		Forced: []schedRun{
			forcedRun("sim", time.Second, true),
			forcedRun("sat", 1100*time.Millisecond, true),
			forcedRun("bdd", time.Second, true),
		},
	}
	s := summariseForced(&row)
	if s.hasBest || row.BestForced != nil || row.VsBest != nil {
		t.Fatalf("all-budgeted row has a best: %v %v %v", s, row.BestForced, row.VsBest)
	}
	if row.WorstForced != "sat" || !s.worstCut {
		t.Fatalf("worst = %s cut=%v, want sat as a lower bound", row.WorstForced, s.worstCut)
	}
	js, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"best_forced":null`, `"adaptive_over_best":null`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("row JSON lacks %s: %s", want, js)
		}
	}
}
