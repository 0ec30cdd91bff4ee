package main

// Differential-harness smoke row: runs a short cecfuzz-style sweep (every
// backend cross-checked on seeded random miters) and records the backend
// agreement rate plus per-backend timing into BENCH_difftest.json. A row
// with agreement < 1.0 means two deciders disagreed on the same miter —
// a correctness regression, not a performance one — so the bench run
// fails loudly rather than writing the row.

import (
	"fmt"
	"io"
	"os"
	"time"

	"simsweep/internal/difftest"
)

// difftestBackendRow is one backend's share of the smoke sweep.
type difftestBackendRow struct {
	Name    string  `json:"name"`
	Checks  int     `json:"checks"`
	Decided int     `json:"decided"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
}

// difftestReport is the JSON row written by `benchtab -difftest`.
type difftestReport struct {
	Seed      int64                `json:"seed"`
	Cases     int                  `json:"cases"`
	EQ        int                  `json:"eq"`
	NEQ       int                  `json:"neq"`
	Undecided int                  `json:"undecided_consensus"`
	Checks    int                  `json:"checks_run"`
	Failures  int                  `json:"failures"`
	Agreement float64              `json:"agreement"`
	WallNS    int64                `json:"wall_ns"`
	Wall      string               `json:"wall"`
	Backends  []difftestBackendRow `json:"backends"`
}

// runDifftestBench runs the short differential sweep and writes the smoke
// row. The sweep itself is deterministic in the seed; only the timings vary
// between runs.
func runDifftestBench(path string, seed int64, n, workers int) error {
	fmt.Printf("difftest smoke: seed=%d n=%d (all backends, metamorphic off)\n", seed, n)
	start := time.Now()
	s, err := difftest.Run(difftest.Options{
		Seed:    seed,
		N:       n,
		Workers: workers,
	}, io.Discard)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	rep := difftestReport{
		Seed:      seed,
		Cases:     s.Cases,
		EQ:        s.EQ,
		NEQ:       s.NEQ,
		Undecided: s.Undecided,
		Checks:    s.ChecksRun,
		Failures:  len(s.Failures),
		Agreement: s.Agreement,
		WallNS:    wall.Nanoseconds(),
		Wall:      wall.Round(time.Millisecond).String(),
	}
	for _, t := range s.Timings {
		row := difftestBackendRow{
			Name:    t.Name,
			Checks:  t.Checks,
			Decided: t.Decided,
			TotalMS: float64(t.Total.Microseconds()) / 1e3,
		}
		if t.Checks > 0 {
			row.MeanMS = row.TotalMS / float64(t.Checks)
		}
		rep.Backends = append(rep.Backends, row)
	}
	fmt.Printf("difftest smoke: %d cases (%d EQ / %d NEQ), %d checks, agreement %.4f, wall %s\n",
		rep.Cases, rep.EQ, rep.NEQ, rep.Checks, rep.Agreement, rep.Wall)
	if len(s.Failures) > 0 {
		for _, f := range s.Failures {
			fmt.Fprintf(os.Stderr, "  case %d (%s): %s[%s]: %s\n",
				f.CaseIndex, f.CaseKind, f.Failure.Kind, f.Failure.Backend, f.Failure.Detail)
		}
		return fmt.Errorf("difftest smoke: %d failures — backends disagree; fix before benchmarking", len(s.Failures))
	}
	return writeReport(path, "difftest smoke row", rep)
}
