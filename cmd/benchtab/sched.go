package main

import (
	"fmt"
	"strings"
	"time"

	"simsweep"
	"simsweep/internal/bench"
	"simsweep/internal/par"
	"simsweep/internal/sched"
)

// schedEngines is the forced-prover roster the adaptive scheduler is
// measured against, in routing-score order.
var schedEngines = []string{sched.EngineSim, sched.EngineSAT, sched.EngineBDD}

// schedRun is one scheduler run on a family miter: adaptive routing or a
// single forced prover, on a fresh device so runs do not share kernel
// state.
type schedRun struct {
	Engine      string            `json:"engine"`
	Verdict     string            `json:"verdict"`
	TimeNS      int64             `json:"time_ns"`
	Time        string            `json:"time"`
	Classes     int               `json:"classes"`
	Pairs       int               `json:"pairs"`
	Rounds      int               `json:"rounds"`
	Escalations int               `json:"escalations"`
	SharedCEX   int               `json:"shared_cex"`
	Deferred    int               `json:"deferred"`
	Parked      int               `json:"parked"`
	Budgeted    bool              `json:"budget_exceeded,omitempty"`
	Routed      map[string]uint64 `json:"routed,omitempty"`
	Proved      map[string]uint64 `json:"proved,omitempty"`
	EngineTime  map[string]string `json:"engine_time,omitempty"`
	Faults      []string          `json:"faults,omitempty"`
}

// schedFamilyRow compares the adaptive scheduler against each forced
// single-prover variant on one benchmark family, with the hybrid facade
// flow as the verdict-agreement reference.
type schedFamilyRow struct {
	Family        string     `json:"family"`
	Nodes         int        `json:"miter_ands"`
	Adaptive      schedRun   `json:"adaptive"`
	Forced        []schedRun `json:"forced"`
	HybridVerdict string     `json:"hybrid_verdict"`
	HybridTimeNS  int64      `json:"hybrid_time_ns"`
	BestForced    *string    `json:"best_forced"` // null: every forced run exceeded the budget
	WorstForced   string     `json:"worst_forced"`
	VsBest        *float64   `json:"adaptive_over_best"` // adaptive time / best forced time (<=1: adaptive wins); null without a best
	SpeedupWorst  float64    `json:"speedup_vs_worst"`   // worst forced time / adaptive time; a lower bound when the worst run exceeded the budget
	Agree         bool       `json:"all_verdicts_agree"`
}

// forcedSummary is the arithmetic of one family row over its forced runs.
type forcedSummary struct {
	bestNS, worstNS int64
	hasBest         bool // some forced run finished within the budget
	worstCut        bool // the worst run exceeded the budget: worstNS is a lower bound
}

// summariseForced sets the row's best and worst forced provers and its two
// ratios from its forced runs. A run cut off by the budget is never the
// best; when every run was, the row has no best, and best_forced and
// adaptive_over_best stay null rather than reading 0.
func summariseForced(row *schedFamilyRow) forcedSummary {
	var s forcedSummary
	for _, fr := range row.Forced {
		if !fr.Budgeted && (!s.hasBest || fr.TimeNS < s.bestNS) {
			name := fr.Engine
			row.BestForced, s.bestNS, s.hasBest = &name, fr.TimeNS, true
		}
		if row.WorstForced == "" || fr.TimeNS > s.worstNS {
			row.WorstForced, s.worstNS, s.worstCut = fr.Engine, fr.TimeNS, fr.Budgeted
		}
	}
	if s.hasBest {
		v := nsRatio(row.Adaptive.TimeNS, s.bestNS)
		row.VsBest = &v
	}
	row.SpeedupWorst = nsRatio(s.worstNS, row.Adaptive.TimeNS)
	return s
}

type schedReport struct {
	Generated string           `json:"generated"`
	Workers   int              `json:"workers"`
	Size      int              `json:"size"`
	Families  []schedFamilyRow `json:"families"`
	Totals    struct {
		AdaptiveTimeNS   int64             `json:"adaptive_time_ns"`
		AdaptiveTime     string            `json:"adaptive_time"`
		BestForcedTimeNS int64             `json:"best_forced_time_ns"` // families with a best only
		BestForcedTime   string            `json:"best_forced_time"`
		VsBest           *float64          `json:"adaptive_over_best"` // over the families with a best; null if none
		MaxSpeedupWorst  float64           `json:"max_speedup_vs_worst"`
		Routed           map[string]uint64 `json:"routed"`
	} `json:"totals"`
}

// runSchedBench runs every benchmark family through the class scheduler
// four times — adaptive routing, plus each prover forced — and through
// the hybrid facade flow as the agreement reference, then writes the
// comparison to path. Every run starts cold: routing learns only within
// the run. Forced single-prover baselines get a per-run wall-clock
// budget: a mono-engine run that blows it is recorded as exceeding the
// budget (its elapsed time is a lower bound on the true cost, printed
// with ">=") and is excluded from the agreement check and from the best
// column. A family whose every forced run blew the budget has no best and
// is left out of the sum-of-best and the TOTAL ratio. Any verdict
// disagreement among the finished runs is an error (reported after the
// JSON is written): routing must never change the answer, only the time
// to reach it.
func runSchedBench(path string, size int, only string, workers int, seed int64, budget time.Duration) error {
	cases := suite(size, only)

	buildDev := par.NewDevice(workers)
	defer buildDev.Close()

	report := schedReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Workers:   buildDev.Workers(),
		Size:      size,
	}
	report.Totals.Routed = make(map[string]uint64)

	var disagreed []string
	var adaptiveWithBestNS int64 // adaptive time over the families with a best
	noBest := 0
	fmt.Println("class-scheduler benchmark (adaptive routing vs forced single provers):")
	for _, c := range cases {
		inst, err := bench.Build(c, buildDev)
		if err != nil {
			return err
		}
		row := schedFamilyRow{
			Family:   c.String(),
			Nodes:    inst.Miter.NumAnds(),
			Adaptive: measureSchedRun(inst, workers, seed, "", 0),
			Agree:    true,
		}
		for _, e := range schedEngines {
			fr := measureSchedRun(inst, workers, seed, e, budget)
			row.Forced = append(row.Forced, fr)
			if !fr.Budgeted && fr.Verdict != row.Adaptive.Verdict {
				row.Agree = false
			}
		}
		hybridStart := time.Now()
		hres, err := simsweep.CheckMiter(inst.Miter, simsweep.Options{Workers: workers, Seed: seed})
		if err != nil {
			return err
		}
		row.HybridTimeNS = time.Since(hybridStart).Nanoseconds()
		row.HybridVerdict = hres.Outcome.String()
		if row.HybridVerdict != row.Adaptive.Verdict {
			row.Agree = false
		}
		sum := summariseForced(&row)
		if !row.Agree {
			disagreed = append(disagreed, fmt.Sprintf("%s (adaptive %s, hybrid %s)",
				row.Family, row.Adaptive.Verdict, row.HybridVerdict))
		}
		report.Families = append(report.Families, row)
		report.Totals.AdaptiveTimeNS += row.Adaptive.TimeNS
		if sum.hasBest {
			adaptiveWithBestNS += row.Adaptive.TimeNS
			report.Totals.BestForcedTimeNS += sum.bestNS
		} else {
			noBest++
		}
		if row.SpeedupWorst > report.Totals.MaxSpeedupWorst {
			report.Totals.MaxSpeedupWorst = row.SpeedupWorst
		}
		for e, n := range row.Adaptive.Routed {
			report.Totals.Routed[e] += n
		}
		best := "none"
		if sum.hasBest {
			best = fmt.Sprintf("%-3s %10s", *row.BestForced, time.Duration(sum.bestNS))
		}
		lowerBound := "  "
		if sum.worstCut {
			lowerBound = ">="
		}
		fmt.Printf("  %-18s adaptive %10s   hybrid %10s (%5.2fx)   best %-14s   worst %-3s %s%10s  %s%4.1fx vs worst  %s\n",
			row.Family, row.Adaptive.Time,
			time.Duration(row.HybridTimeNS).String(), nsRatio(row.HybridTimeNS, row.Adaptive.TimeNS),
			best, row.WorstForced, lowerBound, time.Duration(sum.worstNS).String(),
			lowerBound, row.SpeedupWorst, row.Adaptive.Verdict)
	}
	report.Totals.AdaptiveTime = time.Duration(report.Totals.AdaptiveTimeNS).String()
	report.Totals.BestForcedTime = time.Duration(report.Totals.BestForcedTimeNS).String()
	ratio := "no family had a best"
	if report.Totals.BestForcedTimeNS > 0 {
		v := nsRatio(adaptiveWithBestNS, report.Totals.BestForcedTimeNS)
		report.Totals.VsBest = &v
		ratio = fmt.Sprintf("%.2fx of best", v)
	}
	fmt.Printf("  %-18s adaptive %10s   sum-of-best %10s   (%s, max %.1fx over worst; %d without a best left out)\n",
		"TOTAL", report.Totals.AdaptiveTime, report.Totals.BestForcedTime,
		ratio, report.Totals.MaxSpeedupWorst, noBest)
	fmt.Printf("  routed: %v\n", report.Totals.Routed)

	if err := writeReport(path, "scheduler benchmark", report); err != nil {
		return err
	}
	if len(disagreed) > 0 {
		return fmt.Errorf("verdict disagreement between scheduler variants on: %s",
			strings.Join(disagreed, ", "))
	}
	return nil
}

// measureSchedRun checks the family's miter with the class scheduler on a
// fresh device, optionally forcing one prover for every class. A non-zero
// budget installs a wall-clock stop; a run cut off by it reports Budgeted
// with its elapsed time as a lower bound.
func measureSchedRun(inst *bench.Instance, workers int, seed int64, force string, budget time.Duration) schedRun {
	dev := par.NewDevice(workers)
	defer dev.Close()
	opt := sched.Options{
		Dev:   dev,
		Seed:  seed,
		Force: force,
	}
	if budget > 0 {
		stop := make(chan struct{})
		timer := time.AfterFunc(budget, func() { close(stop) })
		defer timer.Stop()
		opt.Stop = stop
	}
	start := time.Now()
	res := sched.CheckMiter(inst.Miter, opt)
	elapsed := time.Since(start)

	engine := force
	if engine == "" {
		engine = "adaptive"
	}
	run := schedRun{
		Engine:      engine,
		Verdict:     res.Outcome.String(),
		TimeNS:      elapsed.Nanoseconds(),
		Time:        elapsed.String(),
		Classes:     res.Stats.Classes,
		Pairs:       res.Stats.Pairs,
		Rounds:      res.Stats.Rounds,
		Escalations: res.Stats.Escalations,
		SharedCEX:   res.Stats.SharedCEX,
		Deferred:    res.Stats.Deferred,
		Parked:      res.Stats.Parked,
		Budgeted:    res.Stopped,
		Faults:      res.Faults,
	}
	if force == "" && len(res.Stats.PerEngine) > 0 {
		run.Routed = make(map[string]uint64, len(res.Stats.PerEngine))
		run.Proved = make(map[string]uint64, len(res.Stats.PerEngine))
		run.EngineTime = make(map[string]string, len(res.Stats.PerEngine))
		for e, st := range res.Stats.PerEngine {
			run.Routed[e] = st.Routed
			run.Proved[e] = st.Proved
			run.EngineTime[e] = st.Time.Round(time.Microsecond).String()
		}
	}
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
