// Command benchtab regenerates the paper's evaluation artifacts on
// CPU-scaled instances of the nine benchmark families:
//
//	benchtab -table 2        Table II  (runtime comparison + geomean)
//	benchtab -fig 6          Figure 6  (engine phase breakdown)
//	benchtab -fig 7          Figure 7  (SAT time on P/PG/PGL miters)
//	benchtab -all            everything
//
// -size scales the instances (1 = quick, 2 = larger); -only restricts to a
// comma-separated list of families. The kernel profile is written only to a
// path named with -benchjson.
//
// Speed claims rest on the benchmark ledger (cmd/ledger), not on these
// one-off runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"simsweep/internal/bench"
	"simsweep/internal/par"
)

func main() {
	os.Exit(run())
}

func run() int {
	table := flag.Int("table", 0, "regenerate Table N (2)")
	fig := flag.Int("fig", 0, "regenerate Figure N (6 or 7)")
	ablation := flag.String("ablation", "", "run an ablation group: window-merge, similarity, passes, extensions")
	all := flag.Bool("all", false, "regenerate every table and figure")
	size := flag.Int("size", 1, "instance size (1 quick, 2 larger)")
	only := flag.String("only", "", "comma-separated benchmark families to run")
	workers := flag.Int("workers", 0, "parallel workers (0: all CPUs)")
	seed := flag.Int64("seed", 1, "random simulation seed")
	benchJSON := flag.String("benchjson", "", "write per-kernel device statistics to this file (empty: disabled)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	if *all {
		*table = 2
		*fig = 67
	}
	if *table == 0 && *fig == 0 && *ablation == "" {
		fmt.Fprintln(os.Stderr, "usage: benchtab (-table 2 | -fig 6 | -fig 7 | -ablation g | -all) [-size N] [-only a,b]")
		flag.PrintDefaults()
		return 2
	}

	cases := suite(*size, *only)
	dev := par.NewDevice(*workers)
	opts := bench.Options{Workers: *workers, Seed: *seed, Dev: dev}

	instances := make([]*bench.Instance, 0, len(cases))
	fmt.Println("building instances (generate -> double -> resyn2 -> miter):")
	for _, c := range cases {
		inst, err := bench.Build(c, dev)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 2
		}
		fmt.Printf("  %-18s %s\n", c, inst.Miter.Stats())
		instances = append(instances, inst)
	}
	fmt.Println()

	if *table == 2 {
		rows := make([]bench.Table2Row, 0, len(instances))
		for _, inst := range instances {
			fmt.Printf("table 2: running %s ...\n", inst.Case)
			rows = append(rows, bench.RunTable2Case(inst, opts))
		}
		bench.SortRowsPaperOrder(rows)
		fmt.Println("\n=== Table II: runtime comparison ===")
		fmt.Print(bench.FormatTable2(rows))
		fmt.Println()
		// The three columns are independent deciders on the same miter: any
		// disagreement among decided verdicts is an engine bug, and a
		// benchmark that silently tabulates contradictory answers is worse
		// than one that fails.
		if bad := table2Disagreements(rows); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "benchtab: verdict disagreement in Table II on: %s\n",
				strings.Join(bad, ", "))
			return 2
		}
	}
	if *fig == 6 || *fig == 67 {
		rows := make([]bench.Figure6Row, 0, len(instances))
		for _, inst := range instances {
			rows = append(rows, bench.RunFigure6Case(inst, opts))
		}
		fmt.Println("=== Figure 6: engine runtime breakdown ===")
		fmt.Print(bench.FormatFigure6(rows))
		fmt.Println()
	}
	if *ablation != "" {
		var rows []bench.AblationRow
		for _, inst := range instances {
			r, err := bench.RunAblation(*ablation, inst, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
				return 2
			}
			rows = append(rows, r...)
		}
		fmt.Println("=== Ablation ===")
		fmt.Print(bench.FormatAblation(*ablation, rows))
		fmt.Println()
	}
	if *fig == 7 || *fig == 67 {
		rows := make([]bench.Figure7Row, 0, len(instances))
		for _, inst := range instances {
			fmt.Printf("figure 7: running %s ...\n", inst.Case)
			rows = append(rows, bench.RunFigure7Case(inst, opts))
		}
		fmt.Println("\n=== Figure 7: SAT time on intermediate miters (normalised) ===")
		fmt.Print(bench.FormatFigure7(rows))
	}
	if err := writeBenchJSON(*benchJSON, dev); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		return 2
	}
	return 0
}

// suite returns the benchmark cases at size, restricted to the
// comma-separated families of only when it is non-empty.
func suite(size int, only string) []bench.Case {
	cases := bench.Suite(size)
	if only == "" {
		return cases
	}
	keep := map[string]bool{}
	for _, n := range strings.Split(only, ",") {
		keep[strings.TrimSpace(n)] = true
	}
	var filtered []bench.Case
	for _, c := range cases {
		if keep[c.Name] {
			filtered = append(filtered, c)
		}
	}
	return filtered
}

// table2Disagreements returns the families whose Table II columns (abc,
// cfm, ours) produced contradictory decided verdicts. Undecided columns are
// tolerated — a budgeted baseline may starve — but two decided columns must
// agree.
func table2Disagreements(rows []bench.Table2Row) []string {
	var bad []string
	for _, row := range rows {
		decided := ""
		for _, v := range row.Verdicts {
			if v == "" || v == "undecided" {
				continue
			}
			if decided == "" {
				decided = v
			} else if v != decided {
				bad = append(bad, fmt.Sprintf("%s %v", row.Case, row.Verdicts))
				break
			}
		}
	}
	return bad
}

// kernelRecord is one row of the machine-readable kernel profile: the
// launch count, item count and cumulative wall-clock time of a kernel over
// the whole harness run, so future changes have a perf trajectory to
// compare against.
type kernelRecord struct {
	Name     string `json:"name"`
	Launches int    `json:"launches"`
	Items    int64  `json:"items"`
	TimeNS   int64  `json:"time_ns"`
	Time     string `json:"time"`
}

type benchReport struct {
	Generated string         `json:"generated"`
	Workers   int            `json:"workers"`
	Kernels   []kernelRecord `json:"kernels"`
}

// writeBenchJSON writes the device's kernel profile as indented JSON to
// path. An empty path writes nothing.
func writeBenchJSON(path string, dev *par.Device) error {
	if path == "" {
		return nil
	}
	stats := dev.Stats()
	report := benchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Workers:   dev.Workers(),
	}
	for name, ks := range stats {
		report.Kernels = append(report.Kernels, kernelRecord{
			Name:     name,
			Launches: ks.Launches,
			Items:    ks.Items,
			TimeNS:   ks.Time.Nanoseconds(),
			Time:     ks.Time.String(),
		})
	}
	sort.Slice(report.Kernels, func(i, j int) bool {
		return report.Kernels[i].TimeNS > report.Kernels[j].TimeNS
	})
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("kernel statistics written to %s\n", path)
	return nil
}
