package gen

import (
	"fmt"
	"math/bits"

	"simsweep/internal/aig"
	"simsweep/internal/miter"
)

// BoothArrayMiter builds the adversarial near-miss miter of a width-bit
// array multiplier (Multiplier) against a radix-2 Booth multiplier
// (MultiplierBooth) — the workload class where simulation-based sweeping
// finds no internal equivalences to merge and a monolithic SAT call blows
// a tight conflict budget.
//
// With flip false the miter is equivalent by construction: both sides
// compute the same product. With flip true, one AND gate of the Booth side
// has a fanin complemented before the miter is built. The gate is chosen
// deterministically by bit-parallel simulation over every candidate: among
// the flips with a confirmed differing input pattern, the one observable
// on the fewest sampled patterns wins. The result is a guaranteed-NEQ
// miter whose counter-examples are as rare as one gate flip allows.
func BoothArrayMiter(width int, flip bool) (*aig.AIG, error) {
	array, err := Multiplier(width)
	if err != nil {
		return nil, err
	}
	booth, err := MultiplierBooth(width)
	if err != nil {
		return nil, err
	}
	if flip {
		target, err := rarestFlip(booth)
		if err != nil {
			return nil, err
		}
		booth = flipFanin(booth, target)
	}
	m, err := miter.Build(array, booth)
	if err != nil {
		return nil, err
	}
	if flip {
		m.Name = fmt.Sprintf("boothmiterneq%d", width)
	} else {
		m.Name = fmt.Sprintf("boothmiter%d", width)
	}
	return m, nil
}

// rarestFlip scans every AND gate of g and returns the id whose
// fanin-complement flip changes the circuit function on the fewest (but at
// least one) sampled input patterns. Sampling is exhaustive up to 13 PIs
// and a fixed 8192-pattern deterministic random set beyond, so the choice
// — and the guarantee that the flip is a real functional change — is
// reproducible.
func rarestFlip(g *aig.AIG) (int, error) {
	pis := flipPatterns(g.NumPIs())
	base := poWords(g, simFlip(g, pis, -1))
	best, bestCount := -1, -1
	for id := 1; id < g.NumNodes(); id++ {
		if !g.IsAnd(id) {
			continue
		}
		flipped := poWords(g, simFlip(g, pis, id))
		count := 0
		for w := range base {
			for k := range base[w] {
				count += bits.OnesCount64(base[w][k] ^ flipped[w][k])
			}
		}
		if count > 0 && (bestCount < 0 || count < bestCount) {
			best, bestCount = id, count
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("gen: no observable single-gate flip in %q", g.Name)
	}
	return best, nil
}

// flipPatterns builds the per-PI pattern words of the flip scan:
// exhaustive enumeration of the input space up to 13 PIs (padded by
// wrap-around below 6), a deterministic splitmix64 sample beyond.
func flipPatterns(numPIs int) [][]uint64 {
	var words int
	exhaustive := numPIs <= 13
	if exhaustive {
		total := 1 << uint(numPIs)
		words = (total + 63) / 64
		if words == 0 {
			words = 1
		}
	} else {
		words = 128 // 8192 random patterns
	}
	pis := make([][]uint64, numPIs)
	for i := range pis {
		pis[i] = make([]uint64, words)
	}
	if exhaustive {
		mask := (1 << uint(numPIs)) - 1
		for w := 0; w < words; w++ {
			for bit := 0; bit < 64; bit++ {
				p := (w*64 + bit) & mask // wrap-around padding below 64 patterns
				for i := 0; i < numPIs; i++ {
					if p&(1<<uint(i)) != 0 {
						pis[i][w] |= 1 << uint(bit)
					}
				}
			}
		}
		return pis
	}
	state := uint64(0x9e3779b97f4a7c15)
	for i := range pis {
		for w := range pis[i] {
			state += 0x9e3779b97f4a7c15
			x := state
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			pis[i][w] = x
		}
	}
	return pis
}

// simFlip bit-parallel-simulates g over the given per-PI pattern words,
// complementing the first fanin of the target AND gate (target < 0: none),
// and returns the per-node value words.
func simFlip(g *aig.AIG, pis [][]uint64, target int) [][]uint64 {
	words := len(pis[0])
	vals := make([][]uint64, g.NumNodes())
	vals[0] = make([]uint64, words) // constant false
	for i := 0; i < g.NumPIs(); i++ {
		vals[g.PIID(i)] = pis[i]
	}
	for id := 1; id < g.NumNodes(); id++ {
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.Fanins(id)
		a, b := vals[f0.ID()], vals[f1.ID()]
		inv0, inv1 := f0.IsCompl(), f1.IsCompl()
		if id == target {
			inv0 = !inv0
		}
		v := make([]uint64, words)
		for w := 0; w < words; w++ {
			x, y := a[w], b[w]
			if inv0 {
				x = ^x
			}
			if inv1 {
				y = ^y
			}
			v[w] = x & y
		}
		vals[id] = v
	}
	return vals
}

// poWords maps simulated node values onto per-PO output words.
func poWords(g *aig.AIG, vals [][]uint64) [][]uint64 {
	out := make([][]uint64, g.NumPOs())
	for i := range out {
		po := g.PO(i)
		src := vals[po.ID()]
		w := make([]uint64, len(src))
		copy(w, src)
		if po.IsCompl() {
			for k := range w {
				w[k] = ^w[k]
			}
		}
		out[i] = w
	}
	return out
}

// flipFanin rebuilds g with the first fanin of the target AND gate
// complemented, re-hashing through the structural table.
func flipFanin(g *aig.AIG, target int) *aig.AIG {
	ng := aig.New()
	ng.Name = g.Name + "-flip"
	mp := make([]aig.Lit, g.NumNodes())
	mp[0] = aig.False
	for i := 0; i < g.NumPIs(); i++ {
		mp[g.PIID(i)] = ng.AddPI()
	}
	for id := 1; id < g.NumNodes(); id++ {
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.Fanins(id)
		a := mp[f0.ID()].NotIf(f0.IsCompl())
		b := mp[f1.ID()].NotIf(f1.IsCompl())
		if id == target {
			a = a.Not()
		}
		mp[id] = ng.And(a, b)
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		ng.AddPO(mp[po.ID()].NotIf(po.IsCompl()))
	}
	return ng
}
