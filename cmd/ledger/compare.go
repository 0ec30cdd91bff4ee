package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runSet is what -out writes: every run of a full-mode invocation and a
// per-workload summary of each metric over the runs.
type runSet struct {
	Env     env                              `json:"env"`
	Seconds float64                          `json:"seconds"`
	Runs    []setRun                         `json:"runs"`
	Summary map[string]map[string]summaryRow `json:"summary"`
}

// setRun is one seed of one workload: its untraced and its traced run.
type setRun struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	E2E      *runReport `json:"e2e"`
	Layers   *runReport `json:"layers"`
}

// summaryRow is one metric of one workload over a set's runs.
type summaryRow struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// values collects a metric's measured values over the runs of a workload,
// end-to-end metrics first, then per-layer ones.
func (s *runSet) values(workload, name string) ([]float64, string) {
	var xs []float64
	unit := ""
	for _, r := range s.Runs {
		if r.Workload != workload {
			continue
		}
		for _, rep := range []*runReport{r.E2E, r.Layers} {
			if rep == nil {
				continue
			}
			if m, ok := rep.Metrics[name]; ok {
				unit = m.Unit
				if m.Value != nil {
					xs = append(xs, *m.Value)
				}
				break
			}
		}
	}
	return xs, unit
}

// summarize fills Summary with the median and quartiles of every metric
// that was measured at least once.
func (s *runSet) summarize() {
	s.Summary = make(map[string]map[string]summaryRow)
	for _, r := range s.Runs {
		if s.Summary[r.Workload] == nil {
			s.Summary[r.Workload] = make(map[string]summaryRow)
		}
		for _, rep := range []*runReport{r.E2E, r.Layers} {
			if rep == nil {
				continue
			}
			for name := range rep.Metrics {
				xs, unit := s.values(r.Workload, name)
				if len(xs) == 0 {
					continue
				}
				q1, q3 := quartiles(xs)
				s.Summary[r.Workload][name] = summaryRow{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Unit: unit}
			}
		}
	}
}

// printSummary writes the gated metrics of every workload as median
// [Q1, Q3] over the runs.
func (s *runSet) printSummary(w io.Writer) {
	fmt.Fprintf(w, "%-9s", "workload")
	for _, g := range gatedMetrics {
		fmt.Fprintf(w, " %26s", g.Name+" ("+g.Unit+")")
	}
	fmt.Fprintln(w)
	for _, wl := range s.workloads() {
		fmt.Fprintf(w, "%-9s", wl)
		for _, g := range gatedMetrics {
			row, ok := s.Summary[wl][g.Name]
			if !ok {
				fmt.Fprintf(w, " %26s", "null")
				continue
			}
			fmt.Fprintf(w, " %26s", fmt.Sprintf("%.4g [%.4g, %.4g]", row.Median, row.Q1, row.Q3))
		}
		fmt.Fprintln(w)
	}
}

// workloads lists the set's workloads in benchmark order.
func (s *runSet) workloads() []string {
	seen := map[string]bool{}
	for _, r := range s.Runs {
		seen[r.Workload] = true
	}
	var out []string
	for _, w := range workloads {
		if seen[w.name] {
			out = append(out, w.name)
		}
	}
	return out
}

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one metric comparison.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// judge compares one metric's runs. The change (head) regresses when its
// median is worse than the base median by more than bound. When either
// side's spread (IQR over median) is wider than the bound the medians
// cannot show that, and the result is unresolved — unless every head run
// is worse than every base run (a regression) or better (ok). It returns
// the verdict and head's relative change, positive when worse.
func judge(base, head []float64, lowerBetter bool, bound float64) (string, float64) {
	bm, hm := median(base), median(head)
	worse := (hm - bm) / bm
	if !lowerBetter {
		worse = -worse
	}
	if math.Max(relIQR(base), relIQR(head)) > bound {
		switch {
		case separated(base, head, lowerBetter):
			return verdictRegression, worse
		case separated(head, base, lowerBetter):
			return verdictOK, worse
		}
		return verdictUnresolved, worse
	}
	if worse > bound {
		return verdictRegression, worse
	}
	return verdictOK, worse
}

// separated reports whether every run of b reads worse than every run of a.
func separated(a, b []float64, lowerBetter bool) bool {
	sa, sb := sorted(a), sorted(b)
	if lowerBetter {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints one row per workload and gated metric of two -out
// files and returns 1 when any metric regressed beyond its bound.
func compareFiles(w io.Writer, benchPath, basePath, headPath string) int {
	var spec benchSpec
	if err := readJSON(benchPath, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	var base, head runSet
	if err := readJSON(basePath, &base); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	if err := readJSON(headPath, &head); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	fmt.Fprintf(w, "%-9s %-17s %30s %30s %8s %6s  %s\n", "workload", "metric", "base median [Q1, Q3]", "head median [Q1, Q3]", "worse", "bound", "verdict")
	regressions := 0
	for _, wl := range base.workloads() {
		for _, m := range spec.EndToEnd {
			bx, _ := base.values(wl, m.Name)
			hx, _ := head.values(wl, m.Name)
			if len(bx) == 0 || len(hx) == 0 {
				fmt.Fprintf(w, "%-9s %-17s %30s %30s %8s %6.3f  %s\n", wl, m.Name, "-", "-", "-", m.Bound, "missing")
				continue
			}
			v, worse := judge(bx, hx, m.Better == "lower", m.Bound)
			if v == verdictRegression {
				regressions++
			}
			fmt.Fprintf(w, "%-9s %-17s %30s %30s %+7.1f%% %6.3f  %s\n", wl, m.Name, iqrCell(bx), iqrCell(hx), 100*worse, m.Bound, v)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}

// iqrCell renders "median [Q1, Q3] (n)".
func iqrCell(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}

func readJSON(path string, into interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
