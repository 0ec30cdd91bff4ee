package simsweep

// Benchmark harness regenerating the paper's evaluation artifacts as Go
// benchmarks: one benchmark per table/figure plus ablation benchmarks of
// the design choices DESIGN.md calls out. The same code paths back
// cmd/benchtab, which prints the paper-style tables.
//
//	go test -bench BenchmarkTable2 -benchtime 1x
//	go test -bench BenchmarkFigure6 -benchtime 1x
//	go test -bench BenchmarkFigure7 -benchtime 1x
//	go test -bench BenchmarkAblation -benchtime 1x

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"simsweep/internal/bench"
	"simsweep/internal/core"
	"simsweep/internal/cuts"
	"simsweep/internal/gen"
	"simsweep/internal/par"
	"simsweep/internal/satsweep"
)

var (
	benchInstancesOnce sync.Once
	benchInstances     []*bench.Instance
)

// instances materialises the nine Table II families once per test binary.
func instances(b *testing.B) []*bench.Instance {
	b.Helper()
	benchInstancesOnce.Do(func() {
		for _, c := range bench.Suite(1) {
			inst, err := bench.Build(c, nil)
			if err != nil {
				panic(err)
			}
			benchInstances = append(benchInstances, inst)
		}
	})
	return benchInstances
}

func benchOptions() bench.Options { return bench.Options{Seed: 1} }

// BenchmarkTable2 regenerates Table II: per-case runtimes of the SAT
// sweeping baseline ("ABC"), the portfolio ("Cfm") and the simulation
// engine + SAT hybrid ("Ours"), with reduction percentages and speedups.
func BenchmarkTable2(b *testing.B) {
	insts := instances(b)
	for _, inst := range insts {
		inst := inst
		b.Run(inst.Case.String(), func(b *testing.B) {
			var row bench.Table2Row
			for i := 0; i < b.N; i++ {
				row = bench.RunTable2Case(inst, benchOptions())
			}
			b.ReportMetric(row.ABCTime.Seconds(), "ABC-s")
			b.ReportMetric(row.CfmTime.Seconds(), "Cfm-s")
			b.ReportMetric(row.TotalOurs.Seconds(), "Ours-s")
			b.ReportMetric(row.ReducedPct, "reduced-%")
			b.ReportMetric(row.SpeedupABC, "speedup-vs-ABC")
			b.ReportMetric(row.SpeedupCfm, "speedup-vs-Cfm")
			if row.Verdicts[0] != row.Verdicts[2] && row.Verdicts[0] != "undecided" && row.Verdicts[2] != "undecided" {
				b.Fatalf("engines disagree: %v", row.Verdicts)
			}
		})
	}
}

// BenchmarkFigure6 regenerates Figure 6: the P/G/L phase runtime breakdown
// of the simulation engine on every case.
func BenchmarkFigure6(b *testing.B) {
	for _, inst := range instances(b) {
		inst := inst
		b.Run(inst.Case.String(), func(b *testing.B) {
			var row bench.Figure6Row
			for i := 0; i < b.N; i++ {
				row = bench.RunFigure6Case(inst, benchOptions())
			}
			p, g, l := row.Percent()
			b.ReportMetric(p, "P-%")
			b.ReportMetric(g, "G-%")
			b.ReportMetric(l, "L-%")
		})
	}
}

// BenchmarkFigure7 regenerates Figure 7: SAT sweeping time on the miters
// remaining after the P, P+G and P+G+L flow prefixes, normalised by
// standalone SAT sweeping.
func BenchmarkFigure7(b *testing.B) {
	for _, inst := range instances(b) {
		inst := inst
		b.Run(inst.Case.String(), func(b *testing.B) {
			var row bench.Figure7Row
			for i := 0; i < b.N; i++ {
				row = bench.RunFigure7Case(inst, benchOptions())
			}
			b.ReportMetric(row.AfterP, "norm-P")
			b.ReportMetric(row.AfterPG, "norm-PG")
			b.ReportMetric(row.AfterPGL, "norm-PGL")
		})
	}
}

// simTime runs the simulation engine plus SAT backend under a given
// configuration and reports the wall-clock seconds and reduction.
func simTime(b *testing.B, inst *bench.Instance, cfg core.Config) (float64, float64) {
	b.Helper()
	cfg.Seed = 1
	res := core.CheckMiter(inst.Miter, cfg)
	total := res.Stats.Runtime
	if res.Outcome == Undecided {
		sr := satsweep.CheckMiter(res.Reduced, satsweep.Options{Seed: 1})
		total += sr.Stats.Runtime
	}
	return total.Seconds(), res.Stats.ReductionPercent()
}

// ablationCase picks a representative mid-size instance.
func ablationCase(b *testing.B) *bench.Instance {
	for _, inst := range instances(b) {
		if inst.Case.Name == "multiplier" {
			return inst
		}
	}
	b.Fatal("multiplier case missing")
	return nil
}

// BenchmarkAblationWindowMerge compares the engine with and without window
// merging (§III-B3).
func BenchmarkAblationWindowMerge(b *testing.B) {
	inst := ablationCase(b)
	for _, disable := range []bool{false, true} {
		name := "merged"
		if disable {
			name = "unmerged"
		}
		b.Run(name, func(b *testing.B) {
			var secs, red float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.DisableWindowMerge = disable
				secs, red = simTime(b, inst, cfg)
			}
			b.ReportMetric(secs, "total-s")
			b.ReportMetric(red, "reduced-%")
		})
	}
}

// BenchmarkAblationSimilarity compares cut generation with and without
// similarity steering for non-representative nodes (§III-C1).
func BenchmarkAblationSimilarity(b *testing.B) {
	inst := ablationCase(b)
	for _, disable := range []bool{false, true} {
		name := "steered"
		if disable {
			name = "unsteered"
		}
		b.Run(name, func(b *testing.B) {
			var secs, red float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.DisableSimilarity = disable
				// Starve P and G so the L phases do the work the
				// similarity steering matters for.
				cfg.KP, cfg.Kp, cfg.Kg = 8, 6, 6
				secs, red = simTime(b, inst, cfg)
			}
			b.ReportMetric(secs, "total-s")
			b.ReportMetric(red, "reduced-%")
		})
	}
}

// BenchmarkAblationPasses varies the cut-selection pass set of the L
// phases (Table I).
func BenchmarkAblationPasses(b *testing.B) {
	inst := ablationCase(b)
	sets := map[string][]cuts.Pass{
		"pass1-only":  {cuts.PassFanout},
		"pass2-only":  {cuts.PassSmallLevel},
		"pass3-only":  {cuts.PassLargeLevel},
		"all-3passes": {cuts.PassFanout, cuts.PassSmallLevel, cuts.PassLargeLevel},
	}
	for name, passes := range sets {
		passes := passes
		b.Run(name, func(b *testing.B) {
			var secs, red float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.LocalPasses = passes
				cfg.KP, cfg.Kp, cfg.Kg = 8, 6, 6
				secs, red = simTime(b, inst, cfg)
			}
			b.ReportMetric(secs, "total-s")
			b.ReportMetric(red, "reduced-%")
		})
	}
}

// BenchmarkAblationParallelism scales the device worker count — the CPU
// analogue of the paper's reliance on massive parallelism.
func BenchmarkAblationParallelism(b *testing.B) {
	inst := ablationCase(b)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Seed = 1
				cfg.Dev = par.NewDevice(workers)
				core.CheckMiter(inst.Miter, cfg)
			}
		})
	}
}

// BenchmarkEngineKernels measures the raw exhaustive-simulation throughput
// on one instance (node·words per second of Algorithm 1).
func BenchmarkEngineKernels(b *testing.B) {
	inst := ablationCase(b)
	var words int64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = 1
		res := core.CheckMiter(inst.Miter, cfg)
		words = res.Stats.WordsSimulated
	}
	b.ReportMetric(float64(words), "words-simulated")
}

// BenchmarkHybridControl checks vga-w7, the slowest control fabric of the
// benchmark ledger (fabric seed 64), against its resyn2 self through
// CheckMiter as the facade's users do: one fresh check per op on a
// long-lived 2-worker device, op i with simulation seed i+1, as each pass
// of the ledger draws a seed of its own. A check's time hinges on hybrid's
// PO-level SAT attempt after P+G: its first PO call runs out of its share
// of the budget and the attempt sweeps the open cones, which decides the
// check. max-ms reports the slowest op, so a stalled op shows even when
// the mean hides it.
func BenchmarkHybridControl(b *testing.B) {
	g, err := gen.Control(gen.StyleVGA, 7, 64)
	if err != nil {
		b.Fatal(err)
	}
	benchHybrid(b, g)
}

// BenchmarkHybridWide is BenchmarkHybridControl on the wide miters where
// hybrid's attempt after P+G is nearly the whole check: the vga-w10 fabric
// and the 18-bit multiplier, each against its resyn2 self.
func BenchmarkHybridWide(b *testing.B) {
	vga, err := gen.Control(gen.StyleVGA, 10, 64)
	if err != nil {
		b.Fatal(err)
	}
	mult, err := gen.Multiplier(18)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("vga-w10", func(b *testing.B) { benchHybrid(b, vga) })
	b.Run("multiplier-18", func(b *testing.B) { benchHybrid(b, mult) })
}

// benchHybrid checks g against its resyn2 self once per op, each op a fresh
// check with its own seed on one 2-worker device, and reports the slowest
// op as max-ms.
func benchHybrid(b *testing.B, g *AIG) {
	m, err := BuildMiter(g, Optimize(g))
	if err != nil {
		b.Fatal(err)
	}
	dev := NewDevice(2)
	defer dev.Close()
	var slowest time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		r, err := CheckMiter(m, Options{Dev: dev, Seed: int64(i + 1)})
		if err != nil || r.Outcome != Equivalent {
			b.Fatalf("outcome %v, err %v", r.Outcome, err)
		}
		slowest = max(slowest, time.Since(start))
	}
	b.ReportMetric(float64(slowest.Microseconds())/1e3, "max-ms")
}
