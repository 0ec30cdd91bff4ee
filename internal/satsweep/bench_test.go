package satsweep

import (
	"testing"

	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
)

// BenchmarkPOPass measures the PO pass alone (CheckPOs under a budget that
// no call runs out of, so it never sweeps) on the
// unreduced miter of the ac97 w8 control fabric against its resyn2 self:
// every PO is proved on one incremental solver, so the time is nearly all
// CDCL propagation and conflict analysis.
func BenchmarkPOPass(b *testing.B) {
	g, err := gen.Control(gen.StyleAC97, 8, 97)
	if err != nil {
		b.Fatal(err)
	}
	m, err := miter.Build(g, opt.Resyn2(g, nil))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, _, _ := CheckPOs(m, Options{}, ample, nil); res.Outcome != miter.Equivalent {
			b.Fatalf("outcome = %v", res.Outcome)
		}
	}
}
