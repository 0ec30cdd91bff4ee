package aig_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
)

// supportGraphs returns benchmark graphs and a random one.
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
	g := aig.New()
	lits := []aig.Lit{}
	for i := 0; i < 24; i++ {
		lits = append(lits, g.AddPI())
	}
	for i := 0; i < 3000; i++ {
		a := lits[len(lits)-1-rng.Intn(min(len(lits), 40))]
		b := lits[rng.Intn(len(lits))]
		lits = append(lits, g.And(a.NotIf(rng.Intn(2) == 0), b.NotIf(rng.Intn(2) == 0)))
	}
	out["random"] = g
	return out
}

// TestSupportsCappedMatchesSupportOf checks every node under several caps:
// a set under the cap is SupportOf's, and Big is set exactly where the
// support passes the cap.
func TestSupportsCappedMatchesSupportOf(t *testing.T) {
	for name, g := range supportGraphs(t) {
		exact := make([][]int32, g.NumNodes())
		for id := 1; id < g.NumNodes(); id++ {
			exact[id] = g.SupportOf(id)
		}
		for _, limit := range []int{1, 4, 8, 16, 32} {
			s := g.SupportsCapped(limit)
			for id := 1; id < g.NumNodes(); id++ {
				over := len(exact[id]) > limit && !g.IsPI(id)
				if s.Big[id] != over {
					t.Fatalf("%s cap %d: node %d support %d, Big %v", name, limit, id, len(exact[id]), s.Big[id])
				}
				if !over && !slices.Equal(s.Sets[id], exact[id]) {
					t.Fatalf("%s cap %d: node %d set %v, SupportOf %v", name, limit, id, s.Sets[id], exact[id])
				}
				if s.Big[id] && s.Sets[id] != nil {
					t.Fatalf("%s cap %d: big node %d carries a set", name, limit, id)
				}
			}
		}
	}
}

// TestSupportsCappedSetsStayApart appends to every returned set in turn:
// the sets share arena blocks, and no append may write into a neighbour.
func TestSupportsCappedSetsStayApart(t *testing.T) {
	for name, g := range supportGraphs(t) {
		s := g.SupportsCapped(16)
		want := make([][]int32, len(s.Sets))
		for id, set := range s.Sets {
			want[id] = slices.Clone(set)
		}
		for id, set := range s.Sets {
			if set == nil {
				continue
			}
			if !slices.Equal(set, want[id]) {
				t.Fatalf("%s: an append to an earlier set overwrote node %d's", name, id)
			}
			_ = append(set, -1, -2)
		}
		for id, set := range s.Sets {
			if !slices.Equal(set, want[id]) {
				t.Fatalf("%s: node %d's set became %v after appends to the others, want %v", name, id, set, want[id])
			}
		}
		// Union hands out a fresh slice: appending to it leaves both
		// operands alone.
		for id := 2; id < g.NumNodes(); id++ {
			u, ok := s.Union(id-1, id)
			if !ok {
				continue
			}
			_ = append(u, -3)
			if !slices.Equal(s.Sets[id-1], want[id-1]) || !slices.Equal(s.Sets[id], want[id]) {
				t.Fatalf("%s: appending to a union changed node %d or %d", name, id-1, id)
			}
		}
	}
}
