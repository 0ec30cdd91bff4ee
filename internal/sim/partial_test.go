package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/fault"
	"simsweep/internal/gen"
	"simsweep/internal/par"
)

// sweepGraphs returns the graphs of the partial-simulator property tests:
// seeded random AIGs and small benchmark families.
func sweepGraphs(t *testing.T) map[string]*aig.AIG {
	t.Helper()
	gs := map[string]*aig.AIG{}
	for seed := int64(1); seed <= 3; seed++ {
		gs[fmt.Sprintf("random-%d", seed)] = gen.Random(9, 5, 250, seed)
	}
	for _, b := range []struct {
		name  string
		scale int
	}{{"multiplier", 5}, {"hyp", 4}, {"voter", 2}, {"ac97_ctrl", 1}} {
		g, err := gen.Benchmark(b.name, b.scale)
		if err != nil {
			t.Fatal(err)
		}
		gs[fmt.Sprintf("%s-%d", b.name, b.scale)] = g
	}
	return gs
}

// checkAgainstEval compares every PO of g, pattern by pattern over the
// whole bank, with single-bit evaluation through aig.Eval.
func checkAgainstEval(t *testing.T, label string, g *aig.AIG, p *Partial) {
	t.Helper()
	sims, err := p.Simulate(g)
	if err != nil {
		t.Fatalf("%s: Simulate: %v", label, err)
	}
	if len(sims) != g.NumNodes() {
		t.Fatalf("%s: %d signatures for %d nodes", label, len(sims), g.NumNodes())
	}
	in := make([]bool, g.NumPIs())
	for w := 0; w < p.Words(); w++ {
		for bit := uint(0); bit < 64; bit++ {
			for i := range in {
				in[i] = (p.bank[i][w]>>bit)&1 == 1
			}
			want := g.Eval(in)
			for o, po := range want {
				l := g.PO(o)
				got := (sims[l.ID()][w]>>bit)&1 == 1
				if got != l.IsCompl() != po {
					t.Fatalf("%s: PO %d, word %d bit %d: sweep %v, eval %v", label, o, w, bit, !po, po)
				}
			}
		}
	}
}

// TestPartialSimulateMatchesEval is the property of the one-sweep
// simulator: on random and benchmark AIGs, for bank widths on both sides of
// a sweep block (one partial or exact block, several blocks with a partial
// last one) and on serial and parallel devices, every pattern of the bank
// simulates exactly like aig.Eval — before and after AddPattern grows the
// bank.
func TestPartialSimulateMatchesEval(t *testing.T) {
	graphs := sweepGraphs(t)
	for _, workers := range []int{1, 2, 4} {
		dev := par.NewDevice(workers)
		for name, g := range graphs {
			for _, words := range []int{1, 2, 7, 8, 9, 33} {
				label := fmt.Sprintf("%s/w%d/workers%d", name, words, workers)
				p := NewPartial(dev, g.NumPIs(), words, int64(words))
				checkAgainstEval(t, label, g, p)

				// A counter-example pattern opens one more word.
				rng := rand.New(rand.NewSource(int64(words)))
				var assign []PIValue
				for i := 0; i < g.NumPIs(); i += 2 {
					assign = append(assign, PIValue{Index: i, Value: rng.Intn(2) == 1})
				}
				p.AddPattern(assign)
				if p.Words() != words+1 {
					t.Fatalf("%s: AddPattern grew the bank to %d words", label, p.Words())
				}
				checkAgainstEval(t, label+"+pattern", g, p)
			}
		}
		dev.Close()
	}
}

// TestPartialSweepPanicReturnsError: an armed par.worker.panic hook must
// surface from Simulate as a kernel-panic error with no signatures — on the
// serial path, on the first block and on a later block of a split sweep —
// and the device must sweep correctly again once disarmed.
func TestPartialSweepPanicReturnsError(t *testing.T) {
	g := gen.Random(9, 5, 250, 7)
	for _, tc := range []struct {
		workers, words int
		spec           string
	}{
		{1, 8, "par.worker.panic:at=1"}, {2, 8, "par.worker.panic:at=1"}, {4, 8, "par.worker.panic:at=1"},
		{1, 33, "par.worker.panic:at=1"}, {2, 33, "par.worker.panic:at=1"}, {4, 33, "par.worker.panic:at=1"},
		{2, 33, "par.worker.panic:at=3"}, {4, 33, "par.worker.panic:at=3"},
	} {
		label := fmt.Sprintf("workers%d/w%d/%s", tc.workers, tc.words, tc.spec)
		dev := par.NewDevice(tc.workers)
		p := NewPartial(dev, g.NumPIs(), tc.words, 1)
		dev.SetFaults(fault.MustParse(tc.spec, 1))
		sims, err := p.Simulate(g)
		dev.SetFaults(nil)
		var kp *par.KernelPanicError
		if !errors.As(err, &kp) || kp.Kernel != "partial.level" {
			t.Fatalf("%s: err = %v, want a partial.level KernelPanicError", label, err)
		}
		if sims != nil {
			t.Fatalf("%s: faulted sweep returned signatures", label)
		}
		checkAgainstEval(t, label+"/disarmed", g, p)
		dev.Close()
	}
}
