package sim

import (
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/par"
)

// deepParityBatch builds nw deep simulation windows over the same k primary
// inputs. Window w holds two structurally different XOR chains (rotated by
// w) computing the same parity, so every pair is provable and the checker
// must sweep every round — the worst-case shape of a deep arithmetic miter.
func deepParityBatch(tb testing.TB, nw, k int) (*aig.AIG, []Pair, []*Window) {
	tb.Helper()
	g := aig.New()
	pis := make([]aig.Lit, k)
	for i := range pis {
		pis[i] = g.AddPI()
	}
	var pairs []Pair
	var windows []*Window
	for w := 0; w < nw; w++ {
		f1 := pis[w%k]
		for i := 1; i < k; i++ {
			f1 = g.Xor(f1, pis[(w+i)%k])
		}
		f2 := pis[(w+k-1)%k]
		for i := k - 2; i >= 0; i-- {
			f2 = g.Xor(f2, pis[(w+i)%k])
		}
		if f1.ID() == f2.ID() {
			tb.Fatalf("window %d: chains strashed together", w)
		}
		sup := g.SupportOfMany([]int{f1.ID(), f2.ID()})
		pi := int32(len(pairs))
		pairs = append(pairs, Pair{
			A:     int32(f1.ID()),
			B:     int32(f2.ID()),
			Compl: f1.IsCompl() != f2.IsCompl(),
		})
		win, err := BuildWindow(g, Spec{
			Roots:   []int32{int32(f1.ID()), int32(f2.ID())},
			Inputs:  sup,
			PairIdx: []int32{pi},
		})
		if err != nil {
			tb.Fatal(err)
		}
		windows = append(windows, win)
	}
	return g, pairs, windows
}

// BenchmarkExhaustiveCheckBatch measures a full multi-round CheckBatch over
// a batch of deep windows: the engine's hot path. The memory budget forces
// several rounds so per-round dispatch overhead is visible.
func BenchmarkExhaustiveCheckBatch(b *testing.B) {
	g, pairs, windows := deepParityBatch(b, 32, 10)
	total := 0
	for _, w := range windows {
		total += w.NumSlots()
	}
	ex := NewExhaustive(par.NewDevice(4), total*4) // E=4 -> 4 rounds at k=10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ex.CheckBatch(g, pairs, windows)
		if !r.Equal[0] {
			b.Fatal("parity pair disproved")
		}
	}
}

// BenchmarkExhaustiveCheckBatchOneShot is the single-round shape (budget
// large enough for the whole truth table).
func BenchmarkExhaustiveCheckBatchOneShot(b *testing.B) {
	g, pairs, windows := deepParityBatch(b, 32, 10)
	ex := NewExhaustive(par.NewDevice(4), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ex.CheckBatch(g, pairs, windows)
		if !r.Equal[0] {
			b.Fatal("parity pair disproved")
		}
	}
}

// BenchmarkExhaustiveCheckBatchFresh is the shape of an L-phase cut batch,
// 4,000 five-input windows, with a fresh checker per op as the engine makes
// one per run.
func BenchmarkExhaustiveCheckBatchFresh(b *testing.B) {
	g, pairs, windows := deepParityBatch(b, 4000, 5)
	dev := par.NewDevice(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewExhaustive(dev, 0).CheckBatch(g, pairs, windows)
		if !r.Equal[0] {
			b.Fatal("parity pair disproved")
		}
	}
}
