package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/trace"
)

// TestEngineStopsOnceProved checks that a miter the P phase proves ends
// after P, and that its PG and PGL snapshots repeat the proved miter, so
// Figure 7 reads 0 for those flows rather than a missing snapshot.
func TestEngineStopsOnceProved(t *testing.T) {
	g, err := gen.Multiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.KeepSnapshots = true
	res := CheckMiter(mustMiter(t, g, opt.Resyn2(g, nil)), cfg)
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if len(res.Phases) != 1 || res.Phases[0].Kind != PhaseP {
		t.Fatalf("phases = %+v, want P alone", res.Phases)
	}
	for _, label := range []string{"P", "PG", "PGL"} {
		if s := res.Snapshots[label]; s == nil || !miter.IsProved(s) {
			t.Fatalf("snapshot %s = %v, want the proved miter", label, s)
		}
	}
}

// starvedMultiplier is an EQ miter whose P and G phases, starved, leave
// the proof to several L phases.
func starvedMultiplier(t *testing.T) (*aig.AIG, Config) {
	t.Helper()
	g, err := gen.Multiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.KP, cfg.Kp, cfg.Kg = 4, 4, 4
	return mustMiter(t, g, opt.Resyn2(g, nil)), cfg
}

// TestStepHookRunsOutsideTheEngine calls a hook that decides nothing: the
// verdict is the plain run's, the hook is called after PG and then after L
// phases in order, its time stays out of Stats.Runtime, and the run's
// core.check spans, one per stretch between hook calls, add up to the
// Stats totals and leave the hook's time out too.
func TestStepHookRunsOutsideTheEngine(t *testing.T) {
	m, cfg := starvedMultiplier(t)
	tr := trace.New(0)
	tr.Enable()
	cfg.Trace = tr
	const nap = 10 * time.Millisecond
	var labels []string
	start := time.Now()
	res := CheckMiterStepped(m, cfg, func(after string, cur *aig.AIG) (*aig.AIG, []bool, []string) {
		if cur.NumPIs() != m.NumPIs() {
			t.Errorf("hook after %s: %d PIs", after, cur.NumPIs())
		}
		labels = append(labels, after)
		time.Sleep(nap)
		return nil, nil, nil
	})
	wall := time.Since(start)
	tr.Disable()
	if res.Outcome != miter.Equivalent || res.Degraded {
		t.Fatalf("outcome = %v, degraded %v", res.Outcome, res.Degraded)
	}
	if len(labels) < 2 || labels[0] != "PG" {
		t.Fatalf("hook calls %v, want PG then L phases", labels)
	}
	for i, l := range labels[1:] {
		if l != fmt.Sprintf("L%d", i+1) {
			t.Fatalf("hook calls %v, want PG, L1, L2, ...", labels)
		}
	}
	if limit := wall - time.Duration(len(labels))*nap; res.Stats.Runtime > limit {
		t.Fatalf("Stats.Runtime %v counts the hook: wall %v, %d hook calls of %v", res.Stats.Runtime, wall, len(labels), nap)
	}

	var parts []trace.Event
	var words, dur int64
	for _, e := range tr.Events() {
		if e.Kind == trace.KindSpan && e.Cat == trace.CatEngine && e.Name == "core.check" {
			parts = append(parts, e)
			words += argValue(e, "words_simulated")
			dur += e.Dur
		}
	}
	if len(parts) != len(labels)+1 {
		t.Fatalf("%d core.check spans for %d hook calls", len(parts), len(labels))
	}
	if limit := wall - time.Duration(len(labels))*nap; time.Duration(dur) > limit {
		t.Fatalf("core.check spans last %v and count the hook: wall %v, %d hook calls of %v", time.Duration(dur), wall, len(labels), nap)
	}
	if words != res.Stats.WordsSimulated {
		t.Fatalf("spans simulated %d words, Stats %d", words, res.Stats.WordsSimulated)
	}
	if got := argValue(parts[0], "initial_ands"); got != int64(res.Stats.InitialAnds) {
		t.Fatalf("first span initial_ands = %d, want %d", got, res.Stats.InitialAnds)
	}
	if got := argValue(parts[len(parts)-1], "final_ands"); got != int64(res.Stats.FinalAnds) {
		t.Fatalf("last span final_ands = %d, want %d", got, res.Stats.FinalAnds)
	}
	var report strings.Builder
	trace.WritePhaseReport(&report, tr)
	want := fmt.Sprintf("engine %12s", time.Duration(dur).Round(time.Microsecond))
	if !strings.Contains(report.String(), want) {
		t.Fatalf("phase report does not sum the %d engine spans (%q):\n%s", len(parts), want, report.String())
	}
}

// argValue returns the named argument of a span (-1 when absent).
func argValue(e trace.Event, key string) int64 {
	for _, a := range e.Args[:e.NArg] {
		if a.Key == key {
			return a.Val
		}
	}
	return -1
}

// TestStepHookDecides checks what the engine does with a hook's answer
// after PG: a proved miter ends the run Equivalent, a counter-example ends
// it NotEquivalent with that vector, and a faulted call is withdrawn,
// recorded and not repeated while the engine goes on to its own verdict.
func TestStepHookDecides(t *testing.T) {
	m, cfg := starvedMultiplier(t)
	// The miter with every PO merged to constant zero.
	proved := aig.New()
	for i := 0; i < m.NumPIs(); i++ {
		proved.AddPI()
	}
	for i := 0; i < m.NumPOs(); i++ {
		proved.AddPO(aig.False)
	}
	cex := make([]bool, m.NumPIs())
	cex[0] = true
	for _, tc := range []struct {
		name   string
		answer func() (*aig.AIG, []bool, []string)
		want   miter.Outcome
		lPhase bool // whether L phases run after the first hook call
	}{
		{"proved", func() (*aig.AIG, []bool, []string) { return proved, nil, nil }, miter.Equivalent, false},
		{"cex", func() (*aig.AIG, []bool, []string) { return nil, cex, nil }, miter.NotEquivalent, false},
		{"fault", func() (*aig.AIG, []bool, []string) { return nil, cex, []string{"hook blew up"} }, miter.Equivalent, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			res := CheckMiterStepped(m, cfg, func(string, *aig.AIG) (*aig.AIG, []bool, []string) {
				calls++
				return tc.answer()
			})
			if res.Outcome != tc.want || calls != 1 {
				t.Fatalf("outcome %v after %d hook calls, want %v after 1", res.Outcome, calls, tc.want)
			}
			if ran := res.Phases[len(res.Phases)-1].Kind == PhaseL; ran != tc.lPhase {
				t.Fatalf("phases %+v: L ran %v, want %v", res.Phases, ran, tc.lPhase)
			}
			if tc.want == miter.NotEquivalent && &res.CEX[0] != &cex[0] {
				t.Fatalf("CEX %v is not the hook's", res.CEX)
			}
			if degraded := len(res.Faults) == 1 && res.Faults[0] == "hook blew up"; degraded != res.Degraded || degraded != (tc.name == "fault") {
				t.Fatalf("degraded %v, faults %v", res.Degraded, res.Faults)
			}
		})
	}
}
