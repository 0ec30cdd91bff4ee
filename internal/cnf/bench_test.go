package cnf

import (
	"testing"

	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/sat"
)

// BenchmarkEncodeMiter encodes every PO of the unreduced miters of two
// control fabrics against their resyn2 versions on one solver each, as a
// PO pass does, and reports the variables and clauses the encoding takes.
// The fabrics are the benchmark ledger's ac97-w8 and vga-w7.
func BenchmarkEncodeMiter(b *testing.B) {
	for _, fab := range []struct {
		name  string
		style gen.ControlStyle
		words int
		seed  int64
	}{
		{"ac97-w8", gen.StyleAC97, 8, 97},
		{"vga-w7", gen.StyleVGA, 7, 64},
	} {
		g, err := gen.Control(fab.style, fab.words, fab.seed)
		if err != nil {
			b.Fatal(err)
		}
		m, err := miter.Build(g, opt.Resyn2(g, nil))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fab.name, func(b *testing.B) {
			b.ReportAllocs()
			var s *sat.Solver
			for i := 0; i < b.N; i++ {
				s = sat.New()
				enc := NewEncoder(m, s)
				for j := 0; j < m.NumPOs(); j++ {
					enc.LitOf(m.PO(j))
				}
			}
			b.ReportMetric(float64(s.NumVars()), "vars/op")
			b.ReportMetric(float64(s.NumClauses()), "clauses/op")
		})
	}
}
