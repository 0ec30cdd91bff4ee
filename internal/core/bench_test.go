package core

import (
	"fmt"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/par"
)

// BenchmarkCheckMiterDatapath runs the engine the way the facade does: one
// CheckMiter call, and so one fresh engine, per op on a long-lived 2-worker
// device, over three of the benchmark ledger's datapath miters (the doubled
// circuit against its resyn2 self). A benchmark that reuses one checker
// across ops, as BenchmarkExhaustiveCheckBatch does, hides what a run
// allocates for itself.
func BenchmarkCheckMiterDatapath(b *testing.B) {
	dev := par.NewDevice(2)
	for _, f := range []struct {
		name  string
		scale int
	}{{"multiplier", 8}, {"sin", 10}, {"hyp", 6}} {
		g, err := gen.Benchmark(f.name, f.scale)
		if err != nil {
			b.Fatal(err)
		}
		g = aig.DoubleN(g, 1)
		m, err := miter.Build(g, opt.Resyn2(g, nil))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%dx1", f.name, f.scale), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Dev = dev
			cfg.Seed = 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r := CheckMiter(m, cfg); r.Outcome != miter.Equivalent {
					b.Fatalf("outcome %v", r.Outcome)
				}
			}
		})
	}
}
