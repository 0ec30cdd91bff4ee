package main

import (
	"fmt"
	"strings"
	"time"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/core"
	"simsweep/internal/difftest"
	"simsweep/internal/gen"
)

// cubeSATBudget is the per-call conflict budget of the SAT baseline of the
// hard-miter experiment — tight enough that a monolithic solve of a
// Booth-vs-array miter blows it.
const cubeSATBudget = 200

// cubeStarvedConfig is the simulation baseline of the hard-miter
// experiment: windows too small to exhaust the input space, a starved
// memory budget and few local phases (the difftest harness's tight
// configuration).
func cubeStarvedConfig() *core.Config {
	return &core.Config{
		KP:             8,
		Kp:             4,
		Kg:             4,
		Kl:             4,
		C:              4,
		SimWords:       2,
		MemBudgetWords: 1 << 10,
		SimSliceWork:   64,
		MaxLocalPhases: 3,
	}
}

// cubeRun is one engine's measured attempt at one hard miter.
type cubeRun struct {
	Engine    string   `json:"engine"`
	Verdict   string   `json:"verdict"`
	TimeNS    int64    `json:"time_ns"`
	Time      string   `json:"time"`
	Cubes     int      `json:"cubes,omitempty"`
	Splits    int      `json:"splits,omitempty"`
	Proved    int      `json:"proved,omitempty"`
	Unknown   int      `json:"unknown,omitempty"`
	Conflicts int64    `json:"conflicts,omitempty"`
	Faults    []string `json:"faults,omitempty"`
}

// cubeFamilyRow is one hard-miter family: the ground truth, the two
// starved baselines and the decomposition prover.
type cubeFamilyRow struct {
	Family string  `json:"family"`
	PIs    int     `json:"pis"`
	Nodes  int     `json:"miter_ands"`
	Truth  string  `json:"truth"`
	Sim    cubeRun `json:"sim_starved"`
	SAT    cubeRun `json:"sat_budgeted"`
	Cube   cubeRun `json:"cube"`
	// Demonstrator marks the experiment's headline rows: both baselines
	// Undecided, cube decided.
	Demonstrator bool `json:"baselines_starved_cube_decided"`
	// CEXReplayed reports that a NotEquivalent verdict's counter-example
	// was replayed through aig.Eval (always true in a passing run).
	CEXReplayed bool `json:"cex_replayed,omitempty"`
}

type cubeReport struct {
	Generated string          `json:"generated"`
	Workers   int             `json:"workers"`
	Size      int             `json:"size"`
	SATBudget int64           `json:"sat_conflict_budget"`
	Families  []cubeFamilyRow `json:"families"`
	Totals    struct {
		Demonstrators int   `json:"demonstrators"`
		CubeTimeNS    int64 `json:"cube_time_ns"`
		Cubes         int   `json:"cubes"`
		Splits        int   `json:"splits"`
	} `json:"totals"`
}

// runCubeBench measures the cube-and-conquer prover on the Booth-vs-array
// hard-miter families (EQ by construction and single-gate-flip NEQ) against
// a starved simulation baseline and a conflict-budgeted SAT baseline, and
// writes the comparison to path. The run fails (non-zero exit) when:
//
//   - any verdict contradicts the ground truth (truth-table oracle up to 16
//     PIs, by-construction beyond),
//   - the complete cube prover leaves any family Undecided,
//   - a NotEquivalent counter-example does not replay through aig.Eval,
//   - no EQ family has both baselines Undecided while cube decides it —
//     without such a row the family is not a hard-miter demonstrator and
//     the experiment proves nothing.
func runCubeBench(path string, size, workers int, seed int64) error {
	widths := []int{5, 6}
	if size >= 2 {
		widths = []int{6, 7}
	}

	report := cubeReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Workers:   workers,
		Size:      size,
		SATBudget: cubeSATBudget,
	}
	var violations []string
	fmt.Println("cube-and-conquer benchmark (starved baselines vs decomposition on Booth-vs-array miters):")
	for _, w := range widths {
		for _, flip := range []bool{false, true} {
			m, err := gen.BoothArrayMiter(w, flip)
			if err != nil {
				return err
			}
			truth := "equivalent"
			if flip {
				truth = "NOT equivalent"
			}
			if m.NumPIs() <= difftest.OracleMaxPIs {
				if v, _ := difftest.TruthTable(m); v.String() != truth {
					return fmt.Errorf("%s: oracle %q contradicts construction %q", m.Name, v, truth)
				}
			}
			row := cubeFamilyRow{
				Family: m.Name,
				PIs:    m.NumPIs(),
				Nodes:  m.NumAnds(),
				Truth:  truth,
			}
			row.Sim = measureCubeRun(m, simsweep.Options{
				Engine:    simsweep.EngineSim,
				Workers:   workers,
				Seed:      seed,
				SimConfig: cubeStarvedConfig(),
			}, "sim-starved")
			row.SAT = measureCubeRun(m, simsweep.Options{
				Engine:        simsweep.EngineSAT,
				Workers:       workers,
				Seed:          seed,
				ConflictLimit: cubeSATBudget,
			}, "sat-200")
			var cubeRes simsweep.Result
			row.Cube, cubeRes = measureCubeRunResult(m, simsweep.Options{
				Engine:  simsweep.EngineCube,
				Workers: workers,
				Seed:    seed,
			}, "cube")

			for _, r := range []cubeRun{row.Sim, row.SAT, row.Cube} {
				if r.Verdict != "undecided" && r.Verdict != truth {
					violations = append(violations, fmt.Sprintf(
						"%s: %s verdict %q contradicts ground truth %q", m.Name, r.Engine, r.Verdict, truth))
				}
			}
			if row.Cube.Verdict == "undecided" {
				violations = append(violations, fmt.Sprintf(
					"%s: complete cube prover left the miter undecided (faults %v)", m.Name, row.Cube.Faults))
			}
			if row.Cube.Verdict == "NOT equivalent" {
				row.CEXReplayed = cubeRes.CEX != nil && replayHits(m, cubeRes.CEX)
				if !row.CEXReplayed {
					violations = append(violations, fmt.Sprintf(
						"%s: counter-example missing or failed aig.Eval replay", m.Name))
				}
			}
			row.Demonstrator = row.Sim.Verdict == "undecided" &&
				row.SAT.Verdict == "undecided" &&
				row.Cube.Verdict == truth
			if row.Demonstrator {
				report.Totals.Demonstrators++
			}
			report.Totals.CubeTimeNS += row.Cube.TimeNS
			report.Totals.Cubes += row.Cube.Cubes
			report.Totals.Splits += row.Cube.Splits
			report.Families = append(report.Families, row)
			fmt.Printf("  %-15s sim %-10s sat %-10s cube %-14s %10s  (%d cubes, %d splits, %d conflicts)\n",
				m.Name, row.Sim.Verdict, row.SAT.Verdict, row.Cube.Verdict,
				row.Cube.Time, row.Cube.Cubes, row.Cube.Splits, row.Cube.Conflicts)
		}
	}
	if report.Totals.Demonstrators == 0 {
		violations = append(violations,
			"no family had both baselines undecided with cube deciding — not a hard-miter demonstrator")
	}

	fmt.Printf("%d/%d demonstrator rows\n", report.Totals.Demonstrators, len(report.Families))
	if err := writeReport(path, "cube benchmark", report); err != nil {
		return err
	}
	if len(violations) > 0 {
		return fmt.Errorf("cube benchmark violations:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}

// measureCubeRun runs one engine on the miter and records verdict + time.
func measureCubeRun(m *aig.AIG, o simsweep.Options, label string) cubeRun {
	r, _ := measureCubeRunResult(m, o, label)
	return r
}

// measureCubeRunResult is measureCubeRun returning the raw facade result
// too (for counter-example replay and cube statistics).
func measureCubeRunResult(m *aig.AIG, o simsweep.Options, label string) (cubeRun, simsweep.Result) {
	start := time.Now()
	res, err := simsweep.CheckMiter(m, o)
	elapsed := time.Since(start)
	run := cubeRun{
		Engine: label,
		TimeNS: elapsed.Nanoseconds(),
		Time:   elapsed.String(),
	}
	if err != nil {
		run.Verdict = "undecided"
		run.Faults = []string{err.Error()}
		return run, res
	}
	run.Verdict = res.Outcome.String()
	run.Faults = res.Faults
	if res.Cube != nil {
		run.Cubes = res.Cube.Cubes
		run.Splits = res.Cube.Splits
		run.Proved = res.Cube.Proved
		run.Unknown = res.Cube.Unknown
		run.Conflicts = res.Cube.SATConflicts
	}
	return run, res
}

// replayHits replays a counter-example and reports whether any miter
// output goes to 1.
func replayHits(m *aig.AIG, cex []bool) bool {
	for _, v := range m.Eval(cex) {
		if v {
			return true
		}
	}
	return false
}
