package miter_test

import (
	"bytes"
	"math/rand"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/aiger"
	"simsweep/internal/difftest"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
)

// BenchmarkReadMiter measures what a check does before the engine runs:
// parse both circuits from binary AIGER, then build their miter. The pairs
// are two bases of the benchmark ledger's NEQ workload, each against a
// gate-flip mutant of its resyn2 side, where parsing and building take
// about half of a check.
func BenchmarkReadMiter(b *testing.B) {
	hyp, err := gen.Benchmark("hyp", 6)
	if err != nil {
		b.Fatal(err)
	}
	vga, err := gen.Control(gen.StyleVGA, 8, 64)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *aig.AIG
	}{{"hyp-6x1", aig.DoubleN(hyp, 1)}, {"vga-w8", vga}} {
		o, rng := opt.Resyn2(c.g, nil), rand.New(rand.NewSource(1))
		var mut *aig.AIG
		for ok := false; !ok; {
			mut, ok = difftest.MutateGateFlip(o, rng)
		}
		var srcA, srcB bytes.Buffer
		if err := aiger.Write(&srcA, c.g, true); err != nil {
			b.Fatal(err)
		}
		if err := aiger.Write(&srcB, mut, true); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ga, err := aiger.Read(bytes.NewReader(srcA.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				gb, err := aiger.Read(bytes.NewReader(srcB.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := miter.Build(ga, gb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
