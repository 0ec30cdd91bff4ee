package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"simsweep/internal/bench"
	"simsweep/internal/core"
	"simsweep/internal/par"
)

// cutsRun is one engine run's cut-enumeration footprint: the verdict it
// reached and the cumulative launches/items/time of every kernel under the
// "cuts." prefix ("cuts.level" for the reference, "cuts.strata" for the
// rebuilt kernel), measured on a fresh device so nothing else pollutes the
// counters.
type cutsRun struct {
	Verdict      string `json:"verdict"`
	Launches     int    `json:"launches"`
	Items        int64  `json:"items"`
	CutsTimeNS   int64  `json:"cuts_time_ns"`
	CutsTime     string `json:"cuts_time"`
	EngineTimeNS int64  `json:"engine_time_ns"`
	EngineTime   string `json:"engine_time"`
}

// cutsFamilyRow compares the two implementations on one benchmark family.
type cutsFamilyRow struct {
	Family    string  `json:"family"`
	Nodes     int     `json:"miter_ands"`
	Reference cutsRun `json:"reference"`
	Strata    cutsRun `json:"strata"`
	Speedup   float64 `json:"cuts_speedup"`
	LaunchDiv float64 `json:"launch_reduction"`
	Agree     bool    `json:"verdicts_agree"`
}

// seedBaseline quotes the historical cuts.level numbers out of the
// checked-in BENCH_sim.json, so the report carries the pre-rewrite
// trajectory point the rewrite is measured against.
type seedBaseline struct {
	File     string `json:"file"`
	Kernel   string `json:"kernel"`
	Launches int    `json:"launches"`
	TimeNS   int64  `json:"time_ns"`
	Time     string `json:"time"`
}

type cutsReport struct {
	Generated    string          `json:"generated"`
	Workers      int             `json:"workers"`
	Size         int             `json:"size"`
	SeedBaseline *seedBaseline   `json:"seed_baseline,omitempty"`
	Families     []cutsFamilyRow `json:"families"`
	Totals       struct {
		ReferenceTimeNS int64   `json:"reference_cuts_time_ns"`
		ReferenceTime   string  `json:"reference_cuts_time"`
		StrataTimeNS    int64   `json:"strata_cuts_time_ns"`
		StrataTime      string  `json:"strata_cuts_time"`
		RefLaunches     int     `json:"reference_launches"`
		StrataLaunches  int     `json:"strata_launches"`
		Speedup         float64 `json:"cuts_speedup"`
		LaunchDiv       float64 `json:"launch_reduction"`
	} `json:"totals"`
}

// runCutsBench runs every benchmark family through the simulation engine
// twice — once forcing the retained per-level reference cut enumeration,
// once on the strata kernel — on fresh, identically sized devices, and
// writes the before/after cuts.* kernel comparison to path. A verdict
// disagreement between the two runs on any family is an error: the rewrite
// must be a pure performance change.
func runCutsBench(path string, size int, only string, workers int, seed int64) error {
	cases := suite(size, only)

	buildDev := par.NewDevice(workers)
	defer buildDev.Close()

	report := cutsReport{
		Generated:    time.Now().UTC().Format(time.RFC3339),
		Workers:      buildDev.Workers(),
		Size:         size,
		SeedBaseline: readSeedBaseline("BENCH_sim.json"),
	}

	var disagreed []string
	fmt.Println("cut-enumeration benchmark (reference cuts.level vs strata kernel):")
	for _, c := range cases {
		inst, err := bench.Build(c, buildDev)
		if err != nil {
			return err
		}
		ref := measureCutsRun(inst, workers, seed, true)
		str := measureCutsRun(inst, workers, seed, false)
		row := cutsFamilyRow{
			Family:    c.String(),
			Nodes:     inst.Miter.NumAnds(),
			Reference: ref,
			Strata:    str,
			Speedup:   nsRatio(ref.CutsTimeNS, str.CutsTimeNS),
			LaunchDiv: nsRatio(int64(ref.Launches), int64(str.Launches)),
			Agree:     ref.Verdict == str.Verdict,
		}
		if !row.Agree {
			disagreed = append(disagreed, fmt.Sprintf("%s (%s vs %s)", row.Family, ref.Verdict, str.Verdict))
		}
		report.Families = append(report.Families, row)
		report.Totals.ReferenceTimeNS += ref.CutsTimeNS
		report.Totals.StrataTimeNS += str.CutsTimeNS
		report.Totals.RefLaunches += ref.Launches
		report.Totals.StrataLaunches += str.Launches
		fmt.Printf("  %-18s ref %10s /%5d launches   strata %10s /%3d launches   %5.1fx  %s\n",
			row.Family, ref.CutsTime, ref.Launches, str.CutsTime, str.Launches,
			row.Speedup, row.Strata.Verdict)
	}
	report.Totals.ReferenceTime = time.Duration(report.Totals.ReferenceTimeNS).String()
	report.Totals.StrataTime = time.Duration(report.Totals.StrataTimeNS).String()
	report.Totals.Speedup = nsRatio(report.Totals.ReferenceTimeNS, report.Totals.StrataTimeNS)
	report.Totals.LaunchDiv = nsRatio(int64(report.Totals.RefLaunches), int64(report.Totals.StrataLaunches))
	fmt.Printf("  %-18s ref %10s /%5d launches   strata %10s /%3d launches   %5.1fx time, %.0fx fewer launches\n",
		"TOTAL", report.Totals.ReferenceTime, report.Totals.RefLaunches,
		report.Totals.StrataTime, report.Totals.StrataLaunches,
		report.Totals.Speedup, report.Totals.LaunchDiv)

	if err := writeReport(path, "cut benchmark", report); err != nil {
		return err
	}
	if len(disagreed) > 0 {
		return fmt.Errorf("verdict disagreement between reference and strata cuts on: %s",
			strings.Join(disagreed, ", "))
	}
	return nil
}

// measureCutsRun checks the family's miter with the simulation engine on a
// fresh device and extracts the cuts.* kernel totals from its profile.
func measureCutsRun(inst *bench.Instance, workers int, seed int64, reference bool) cutsRun {
	dev := par.NewDevice(workers)
	defer dev.Close()
	cfg := core.DefaultConfig()
	cfg.Dev = dev
	cfg.Seed = seed
	cfg.ReferenceCuts = reference
	start := time.Now()
	res := core.CheckMiter(inst.Miter, cfg)
	elapsed := time.Since(start)

	run := cutsRun{
		Verdict:      res.Outcome.String(),
		EngineTimeNS: elapsed.Nanoseconds(),
		EngineTime:   elapsed.String(),
	}
	for name, ks := range dev.Stats() {
		if !strings.HasPrefix(name, "cuts.") {
			continue
		}
		run.Launches += ks.Launches
		run.Items += ks.Items
		run.CutsTimeNS += ks.Time.Nanoseconds()
	}
	run.CutsTime = time.Duration(run.CutsTimeNS).String()
	return run
}

// nsRatio is a/b guarding against a zero denominator (reported as 0, not
// +Inf, to keep the JSON portable).
func nsRatio(a, b int64) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// readSeedBaseline pulls the cuts.level row out of an existing
// BENCH_sim.json so the report records the historical trajectory point.
// Returns nil when the file or the kernel row is missing.
func readSeedBaseline(path string) *seedBaseline {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil
	}
	for _, k := range rep.Kernels {
		if k.Name == "cuts.level" {
			return &seedBaseline{
				File:     path,
				Kernel:   k.Name,
				Launches: k.Launches,
				TimeNS:   k.TimeNS,
				Time:     k.Time,
			}
		}
	}
	return nil
}
