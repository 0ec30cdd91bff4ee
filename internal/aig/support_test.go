package aig_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
)

// supportGraphs returns benchmark graphs and random ones. The random graphs
// have 1, 24, 63, 64, 65 and 130 PIs, so supports fill one PI word, cross
// its boundary and span three words; in all but the 24-PI one some PIs are
// created after ANDs, so PI node ids are not PI indices.
func supportGraphs(t *testing.T) map[string]*aig.AIG {
	t.Helper()
	out := map[string]*aig.AIG{}
	for _, f := range []struct {
		name  string
		scale int
	}{{"multiplier", 6}, {"sin", 6}, {"voter", 3}, {"ac97_ctrl", 1}} {
		g, err := gen.Benchmark(f.name, f.scale)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("%s-%d", f.name, f.scale)] = g
	}
	rng := rand.New(rand.NewSource(1))
	for _, pis := range []int{1, 24, 63, 64, 65, 130} {
		g := aig.New()
		var lits []aig.Lit
		// The 24-PI graph creates every PI first, as parsed circuits do.
		upFront := pis
		if pis != 24 {
			upFront = (pis + 1) / 2
		}
		for i := 0; i < upFront; i++ {
			lits = append(lits, g.AddPI())
		}
		// The other PIs arrive one every few steps of the first half.
		every := 600 / max(1, pis-upFront)
		for i := 0; i < 1200; i++ {
			if g.NumPIs() < pis && i%every == 0 {
				lits = append(lits, g.AddPI())
				continue
			}
			a := lits[len(lits)-1-rng.Intn(min(len(lits), 40))]
			b := lits[rng.Intn(len(lits))]
			lits = append(lits, g.And(a.NotIf(rng.Intn(2) == 0), b.NotIf(rng.Intn(2) == 0)))
		}
		out[fmt.Sprintf("random-%dpi", pis)] = g
	}
	return out
}

// TestSupportsCappedMatchesSupportOf checks every node, and the union of
// every node with its predecessor and with a random older node, under
// several caps: a size, Big and expanded set under the cap agree with
// SupportOf (SupportOfMany for a union), every expanded set is sorted, as
// sim.Spec.Inputs requires, and Big is set exactly where the support
// passes the cap.
func TestSupportsCappedMatchesSupportOf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, g := range supportGraphs(t) {
		n := g.NumNodes()
		exact := make([][]int32, n)
		for id := 1; id < n; id++ {
			exact[id] = g.SupportOf(id)
		}
		// The union oracle is SupportOfMany, asked only where both
		// supports fit under the largest cap: a wider one is over
		// every cap.
		const maxCap = 130
		type union struct {
			a, b int
			want []int32 // nil: wider than maxCap
		}
		var unions []union
		for b := 2; b < n; b++ {
			for _, a := range []int{b - 1, 1 + rng.Intn(b-1)} {
				u := union{a: a, b: b}
				if len(exact[a]) <= maxCap && len(exact[b]) <= maxCap {
					u.want = g.SupportOfMany([]int{a, b})
				}
				unions = append(unions, u)
			}
		}
		for _, limit := range []int{1, 4, 8, 16, 32, 64, 65, maxCap} {
			s := g.SupportsCapped(limit)
			for id := 1; id < n; id++ {
				over := len(exact[id]) > limit && !g.IsPI(id)
				if s.Big(id) != over {
					t.Fatalf("%s cap %d: node %d support %d, Big %v", name, limit, id, len(exact[id]), s.Big(id))
				}
				set := s.Set(id)
				if over {
					if s.Size(id) != -1 || set != nil {
						t.Fatalf("%s cap %d: big node %d has size %d, set %v", name, limit, id, s.Size(id), set)
					}
					continue
				}
				if s.Size(id) != len(exact[id]) || !slices.Equal(set, exact[id]) || !slices.IsSorted(set) {
					t.Fatalf("%s cap %d: node %d size %d set %v, SupportOf %v", name, limit, id, s.Size(id), set, exact[id])
				}
			}
			for _, p := range unions {
				u, ok := s.Union(p.a, p.b)
				if ok != (p.want != nil && len(p.want) <= limit) {
					t.Fatalf("%s cap %d: union of %d and %d has %d PIs, ok %v", name, limit, p.a, p.b, len(p.want), ok)
				}
				if ok && (!slices.Equal(u, p.want) || !slices.IsSorted(u)) {
					t.Fatalf("%s cap %d: union of %d and %d is %v, SupportOfMany %v", name, limit, p.a, p.b, u, p.want)
				}
			}
		}
	}
}

// TestSupportsCappedSetsStayApart appends to every expanded set and union
// in turn: they share blocks, and no append may write into a neighbour.
func TestSupportsCappedSetsStayApart(t *testing.T) {
	for name, g := range supportGraphs(t) {
		s := g.SupportsCapped(16)
		sets := make([][]int32, g.NumNodes())
		want := make([][]int32, g.NumNodes())
		for id := range sets {
			sets[id] = s.Set(id)
			want[id] = slices.Clone(sets[id])
		}
		for id, set := range sets {
			if !slices.Equal(set, want[id]) {
				t.Fatalf("%s: an append to an earlier set overwrote node %d's", name, id)
			}
			_ = append(set, -1, -2)
		}
		var unions, wantU [][]int32
		for id := 2; id < g.NumNodes(); id++ {
			if u, ok := s.Union(id-1, id); ok {
				unions = append(unions, u)
				wantU = append(wantU, slices.Clone(u))
				_ = append(u, -3)
			}
		}
		for id, set := range sets {
			if !slices.Equal(set, want[id]) {
				t.Fatalf("%s: node %d's set became %v after appends to the others, want %v", name, id, set, want[id])
			}
		}
		for i, u := range unions {
			if !slices.Equal(u, wantU[i]) {
				t.Fatalf("%s: union %d became %v after appends to the others, want %v", name, i, u, wantU[i])
			}
		}
	}
}
