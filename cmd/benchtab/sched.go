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
	BestForced    string     `json:"best_forced"`
	WorstForced   string     `json:"worst_forced"`
	VsBest        float64    `json:"adaptive_over_best"` // adaptive time / best forced time (<=1: adaptive wins)
	SpeedupWorst  float64    `json:"speedup_vs_worst"`   // worst forced time / adaptive time
	Agree         bool       `json:"all_verdicts_agree"`
}

type schedReport struct {
	Generated string           `json:"generated"`
	Workers   int              `json:"workers"`
	Size      int              `json:"size"`
	Families  []schedFamilyRow `json:"families"`
	Totals    struct {
		AdaptiveTimeNS   int64             `json:"adaptive_time_ns"`
		AdaptiveTime     string            `json:"adaptive_time"`
		BestForcedTimeNS int64             `json:"best_forced_time_ns"`
		BestForcedTime   string            `json:"best_forced_time"`
		VsBest           float64           `json:"adaptive_over_best"`
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
// budget (its elapsed time is a lower bound on the true cost) and is
// excluded from the agreement check. Any verdict disagreement among the
// finished runs is an error (reported after the JSON is written): routing
// must never change the answer, only the time to reach it.
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
		var bestNS, worstNS int64
		for _, e := range schedEngines {
			fr := measureSchedRun(inst, workers, seed, e, budget)
			row.Forced = append(row.Forced, fr)
			if !fr.Budgeted && (row.BestForced == "" || fr.TimeNS < bestNS) {
				row.BestForced, bestNS = e, fr.TimeNS
			}
			if row.WorstForced == "" || fr.TimeNS > worstNS {
				row.WorstForced, worstNS = e, fr.TimeNS
			}
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
		row.VsBest = nsRatio(row.Adaptive.TimeNS, bestNS)
		row.SpeedupWorst = nsRatio(worstNS, row.Adaptive.TimeNS)
		if !row.Agree {
			disagreed = append(disagreed, fmt.Sprintf("%s (adaptive %s, hybrid %s)",
				row.Family, row.Adaptive.Verdict, row.HybridVerdict))
		}
		report.Families = append(report.Families, row)
		report.Totals.AdaptiveTimeNS += row.Adaptive.TimeNS
		report.Totals.BestForcedTimeNS += bestNS
		if row.SpeedupWorst > report.Totals.MaxSpeedupWorst {
			report.Totals.MaxSpeedupWorst = row.SpeedupWorst
		}
		for e, n := range row.Adaptive.Routed {
			report.Totals.Routed[e] += n
		}
		fmt.Printf("  %-18s adaptive %10s   hybrid %10s (%5.2fx)   best %-3s %10s   worst %-3s %10s   %4.1fx vs worst  %s\n",
			row.Family, row.Adaptive.Time,
			time.Duration(row.HybridTimeNS).String(), nsRatio(row.HybridTimeNS, row.Adaptive.TimeNS),
			row.BestForced, time.Duration(bestNS).String(),
			row.WorstForced, time.Duration(worstNS).String(),
			row.SpeedupWorst, row.Adaptive.Verdict)
	}
	report.Totals.AdaptiveTime = time.Duration(report.Totals.AdaptiveTimeNS).String()
	report.Totals.BestForcedTime = time.Duration(report.Totals.BestForcedTimeNS).String()
	report.Totals.VsBest = nsRatio(report.Totals.AdaptiveTimeNS, report.Totals.BestForcedTimeNS)
	fmt.Printf("  %-18s adaptive %10s   sum-of-best %10s   (%.2fx of best, max %.1fx over worst)\n",
		"TOTAL", report.Totals.AdaptiveTime, report.Totals.BestForcedTime,
		report.Totals.VsBest, report.Totals.MaxSpeedupWorst)
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
