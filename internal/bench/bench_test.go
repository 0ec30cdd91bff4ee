package bench

import (
	"strings"
	"testing"
	"time"

	"simsweep/internal/core"
	"simsweep/internal/miter"
)

func quickOptions() Options {
	return Options{Seed: 1}
}

func buildQuick(t *testing.T, name string) *Instance {
	t.Helper()
	var c Case
	for _, cc := range Suite(1) {
		if cc.Name == name {
			c = cc
			break
		}
	}
	if c.Name == "" {
		t.Fatalf("case %s not in suite", name)
	}
	// Shrink for unit testing.
	c.Doublings = 0
	if c.Scale > 6 {
		c.Scale = 6
	}
	inst, err := Build(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSuiteCoversPaperFamilies(t *testing.T) {
	suite := Suite(1)
	if len(suite) != 9 {
		t.Fatalf("suite has %d cases, want 9", len(suite))
	}
	names := map[string]bool{}
	for _, c := range suite {
		names[c.Name] = true
	}
	for _, want := range []string{"hyp", "log2", "multiplier", "sqrt", "square", "voter", "sin", "ac97_ctrl", "vga_lcd"} {
		if !names[want] {
			t.Fatalf("suite missing %s", want)
		}
	}
	big := Suite(2)
	if big[0].Scale <= suite[0].Scale {
		t.Fatal("larger suite size did not scale up")
	}
}

func TestCaseStringMatchesPaperNaming(t *testing.T) {
	c := Case{Name: "log2", Scale: 10, Doublings: 10}
	if c.String() != "log2_10xd" {
		t.Fatalf("case name = %s", c.String())
	}
	if (Case{Name: "hyp"}).String() != "hyp" {
		t.Fatal("undoubled case misnamed")
	}
}

func TestBuildProducesEquivalentPair(t *testing.T) {
	inst := buildQuick(t, "multiplier")
	if inst.Miter.NumAnds() == 0 {
		t.Fatal("trivial miter: optimizer produced identical structure")
	}
	res := core.CheckMiter(inst.Miter, core.DefaultConfig())
	if res.Outcome == miter.NotEquivalent {
		t.Fatal("benchmark construction produced an inequivalent pair")
	}
}

func TestRunTable2CaseColumns(t *testing.T) {
	inst := buildQuick(t, "multiplier")
	row := RunTable2Case(inst, quickOptions())
	if row.Verdicts[0] != "equivalent" || row.Verdicts[2] != "equivalent" {
		t.Fatalf("verdicts = %v", row.Verdicts)
	}
	if row.TotalOurs <= 0 || row.ABCTime <= 0 || row.CfmTime <= 0 {
		t.Fatalf("missing timings: %+v", row)
	}
	if row.TotalOurs != row.GPUTime+row.SATAfter {
		t.Fatal("total != GPU + SAT")
	}
	if row.ReducedPct < 0 || row.ReducedPct > 100 {
		t.Fatalf("reduction = %v", row.ReducedPct)
	}
	if row.SpeedupABC <= 0 {
		t.Fatalf("speedup = %v", row.SpeedupABC)
	}
}

func TestFormatTable2(t *testing.T) {
	rows := []Table2Row{
		{
			Case: Case{Name: "multiplier", Doublings: 2}, PIs: 10, POs: 10,
			Nodes: 1000, Levels: 30,
			ABCTime: 2 * time.Second, CfmTime: time.Second,
			GPUTime: 100 * time.Millisecond, ReducedPct: 100,
			TotalOurs: 100 * time.Millisecond, SpeedupABC: 20, SpeedupCfm: 10,
		},
		{
			Case: Case{Name: "sqrt", Doublings: 2}, PIs: 8, POs: 4,
			Nodes: 500, Levels: 60,
			ABCTime: time.Second, CfmTime: time.Second,
			GPUTime: 50 * time.Millisecond, ReducedPct: 1,
			SATAfter: time.Second, TotalOurs: 1050 * time.Millisecond,
			SpeedupABC: 0.95, SpeedupCfm: 0.95,
		},
	}
	out := FormatTable2(rows)
	for _, want := range []string{"multiplier_2xd", "sqrt_2xd", "Geomean", "fully proved 1 of 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigure6Case(t *testing.T) {
	inst := buildQuick(t, "multiplier")
	row := RunFigure6Case(inst, quickOptions())
	p, g, l := row.Percent()
	sum := p + g + l
	if row.Total > 0 && (sum < 99.0 || sum > 101.0) {
		t.Fatalf("percentages sum to %v", sum)
	}
	out := FormatFigure6([]Figure6Row{row})
	if !strings.Contains(out, "multiplier") {
		t.Fatalf("figure output missing case:\n%s", out)
	}
}

func TestRunFigure7Case(t *testing.T) {
	inst := buildQuick(t, "multiplier")
	row := RunFigure7Case(inst, quickOptions())
	if row.Standalone <= 0 {
		t.Fatal("no standalone time")
	}
	// The flow prefixes only ever shrink the miter, so normalised times
	// must be non-increasing along P -> PG -> PGL (within noise) and the
	// final one must not exceed ~1 by much on a provable case.
	if row.AfterPGL > row.AfterP+0.5 {
		t.Fatalf("PGL (%v) much slower than P (%v)", row.AfterPGL, row.AfterP)
	}
	out := FormatFigure7([]Figure7Row{row})
	if !strings.Contains(out, "PGL") {
		t.Fatalf("figure output malformed:\n%s", out)
	}
}

func TestBreakdownBarWidth(t *testing.T) {
	bar := breakdownBar(50, 25, 25)
	if len(bar) != 40 {
		t.Fatalf("bar width = %d", len(bar))
	}
	if !strings.Contains(bar, "#") || !strings.Contains(bar, "+") || !strings.Contains(bar, "-") {
		t.Fatalf("bar segments missing: %q", bar)
	}
}

func TestRunAblationGroups(t *testing.T) {
	inst := buildQuick(t, "multiplier")
	for group := range AblationSuites() {
		rows, err := RunAblation(group, inst, quickOptions())
		if err != nil {
			t.Fatalf("%s: %v", group, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s: only %d variants", group, len(rows))
		}
		for _, r := range rows {
			if r.Total <= 0 || r.ReducedPct < 0 || r.ReducedPct > 100 {
				t.Fatalf("%s/%s: implausible row %+v", group, r.Variant, r)
			}
		}
		out := FormatAblation(group, rows)
		if !strings.Contains(out, rows[0].Variant) {
			t.Fatalf("%s: formatted output missing variants:\n%s", group, out)
		}
	}
	if _, err := RunAblation("nonexistent", inst, quickOptions()); err == nil {
		t.Fatal("unknown ablation group accepted")
	}
}

func TestSortRowsPaperOrder(t *testing.T) {
	rows := []Table2Row{
		{Case: Case{Name: "vga_lcd"}},
		{Case: Case{Name: "hyp"}},
		{Case: Case{Name: "voter"}},
	}
	SortRowsPaperOrder(rows)
	if rows[0].Case.Name != "hyp" || rows[2].Case.Name != "vga_lcd" {
		t.Fatalf("order = %v %v %v", rows[0].Case, rows[1].Case, rows[2].Case)
	}
}
