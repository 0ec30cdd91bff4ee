package bench

import (
	"fmt"
	"strings"
	"time"

	"simsweep/internal/core"
	"simsweep/internal/cuts"
	"simsweep/internal/miter"
	"simsweep/internal/satsweep"
)

// AblationRow reports one engine variant on one case.
type AblationRow struct {
	Case       Case
	Variant    string
	Total      time.Duration // sim engine + SAT backend
	SimTime    time.Duration
	ReducedPct float64
}

// ablationVariant describes one configuration tweak.
type ablationVariant struct {
	name  string
	tweak func(*core.Config)
}

// AblationSuites enumerates the design-choice ablations of DESIGN.md:
// window merging, similarity steering, and the Table I pass set.
func AblationSuites() map[string][]string {
	out := map[string][]string{}
	for group, vs := range ablationGroups() {
		for _, v := range vs {
			out[group] = append(out[group], v.name)
		}
	}
	return out
}

func ablationGroups() map[string][]ablationVariant {
	starve := func(cfg *core.Config) {
		// Push the work into the mechanism under test.
		cfg.KP, cfg.Kp, cfg.Kg = 10, 8, 8
	}
	return map[string][]ablationVariant{
		"window-merge": {
			{"merged", func(cfg *core.Config) {}},
			{"unmerged", func(cfg *core.Config) { cfg.DisableWindowMerge = true }},
		},
		"similarity": {
			{"steered", starve},
			{"unsteered", func(cfg *core.Config) { starve(cfg); cfg.DisableSimilarity = true }},
		},
		"passes": {
			{"pass1-only", func(cfg *core.Config) { starve(cfg); cfg.LocalPasses = []cuts.Pass{cuts.PassFanout} }},
			{"pass2-only", func(cfg *core.Config) { starve(cfg); cfg.LocalPasses = []cuts.Pass{cuts.PassSmallLevel} }},
			{"pass3-only", func(cfg *core.Config) { starve(cfg); cfg.LocalPasses = []cuts.Pass{cuts.PassLargeLevel} }},
			{"all-passes", starve},
		},
		"extensions": {
			{"baseline", starve},
			{"adaptive", func(cfg *core.Config) { starve(cfg); cfg.AdaptivePasses = true }},
		},
	}
}

// RunAblation executes every variant of the named group on the instance.
func RunAblation(group string, inst *Instance, o Options) ([]AblationRow, error) {
	variants, ok := ablationGroups()[group]
	if !ok {
		return nil, fmt.Errorf("bench: unknown ablation group %q", group)
	}
	var rows []AblationRow
	for _, v := range variants {
		cfg := o.simConfig(o.dev())
		v.tweak(&cfg)
		start := time.Now()
		res := core.CheckMiter(inst.Miter, cfg)
		simTime := time.Since(start)
		total := simTime
		if res.Outcome == miter.Undecided {
			sr := satsweep.CheckMiter(res.Reduced, satsweep.Options{Dev: o.dev(), Seed: o.Seed})
			total += sr.Stats.Runtime
		}
		rows = append(rows, AblationRow{
			Case:       inst.Case,
			Variant:    v.name,
			Total:      total,
			SimTime:    simTime,
			ReducedPct: res.Stats.ReductionPercent(),
		})
	}
	return rows, nil
}

// FormatAblation renders ablation rows grouped by case.
func FormatAblation(group string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ablation %q\n", group)
	fmt.Fprintf(&b, "%-18s %-12s %10s %10s %9s\n", "Benchmark", "variant", "sim(s)", "total(s)", "reduced")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-12s %10.3f %10.3f %8.1f%%\n",
			r.Case, r.Variant, r.SimTime.Seconds(), r.Total.Seconds(), r.ReducedPct)
	}
	return b.String()
}
