package difftest

import (
	"fmt"
	"math/rand"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/par"
	"simsweep/internal/sim"
)

// Case is one differential test case: a miter plus whatever ground truth
// the generator could establish about it.
type Case struct {
	// Index and Seed identify the case: Seed is derived from the master
	// seed and Index alone, so any case replays from two integers.
	Index int
	Seed  int64
	// Kind names the construction, e.g. "eq-resyn2/multiplier" or
	// "neq-gateflip/random".
	Kind string
	// Miter is the circuit under test.
	Miter *aig.AIG
	// Expected is the ground-truth verdict when the generator could
	// establish one (oracle for narrow miters, witness search otherwise);
	// Undecided means the case is purely differential.
	Expected miter.Outcome
	// Witness is a validated distinguishing assignment when Expected is
	// NotEquivalent.
	Witness []bool
}

// caseSeed derives the per-case seed from the master seed: a splitmix64
// step keeps neighbouring indices uncorrelated.
func caseSeed(master int64, index int) int64 {
	x := uint64(master) + 0x9e3779b97f4a7c15*uint64(index+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// baseCircuit draws one seed circuit from the generator families, sized so
// the miter stays within maxPIs inputs. It returns the circuit and, when a
// genuinely different architecture of the same function exists, that
// second implementation (adder vs Kogge-Stone, multiplier vs Booth).
func baseCircuit(rng *rand.Rand, maxPIs int) (*aig.AIG, *aig.AIG, string) {
	type builder struct {
		name string
		make func() (*aig.AIG, *aig.AIG)
	}
	builders := []builder{
		{"random", func() (*aig.AIG, *aig.AIG) {
			pis := 3 + rng.Intn(maxPIs-2)
			pos := 1 + rng.Intn(4)
			ands := 10 + rng.Intn(110)
			return gen.Random(pis, pos, ands, rng.Int63()), nil
		}},
		{"adder", func() (*aig.AIG, *aig.AIG) {
			w := 2 + rng.Intn(min(4, maxPIs/2-1))
			a, _ := gen.Adder(w)
			b, _ := gen.KoggeStoneAdder(w)
			return a, b
		}},
		{"multiplier", func() (*aig.AIG, *aig.AIG) {
			w := 2 + rng.Intn(min(2, maxPIs/2-1))
			a, _ := gen.Multiplier(w)
			b, _ := gen.MultiplierBooth(w)
			return a, b
		}},
		{"alu", func() (*aig.AIG, *aig.AIG) {
			w := 2 + rng.Intn(min(2, (maxPIs-2)/2-1))
			a, _ := gen.ALU(w)
			return a, nil
		}},
		{"barrel", func() (*aig.AIG, *aig.AIG) {
			w := 4 + rng.Intn(max(1, min(5, maxPIs-6)))
			a, _ := gen.BarrelShifter(w)
			return a, nil
		}},
		{"voter", func() (*aig.AIG, *aig.AIG) {
			n := 5 + 2*rng.Intn(max(1, min(4, (maxPIs-4)/2)))
			a, _ := gen.Voter(n)
			return a, nil
		}},
	}
	if maxPIs >= 8 {
		builders = append(builders, builder{"control", func() (*aig.AIG, *aig.AIG) {
			style := gen.StyleAC97
			if rng.Intn(2) == 1 {
				style = gen.StyleVGA
			}
			words := 1 + rng.Intn(max(1, maxPIs/8))
			a, _ := gen.Control(style, words, rng.Int63())
			return a, nil
		}})
	}
	b := builders[rng.Intn(len(builders))]
	g, alt := b.make()
	return g, alt, b.name
}

// GenerateCase builds the index-th case of a master seed's stream. maxPIs
// bounds the miter width (values ≤ OracleMaxPIs keep the truth-table
// oracle applicable to every case; wider settings fall back to witness
// search for NEQ ground truth). dev hosts the generation-time simulation.
func GenerateCase(dev *par.Device, master int64, index, maxPIs int) (Case, error) {
	if maxPIs < 6 {
		maxPIs = 6
	}
	seed := caseSeed(master, index)
	rng := rand.New(rand.NewSource(seed))
	a, alt, family := baseCircuit(rng, maxPIs)
	if a.NumPIs() > maxPIs {
		return Case{}, fmt.Errorf("difftest: %s case drew %d PIs (max %d)", family, a.NumPIs(), maxPIs)
	}

	c := Case{Index: index, Seed: seed}

	// Pick the second circuit of the pair: an equivalence-preserving
	// restructuring, a different architecture when one exists, or a
	// mutated copy with a (probable) functional defect.
	wantNEQ := rng.Intn(2) == 1
	var b *aig.AIG
	if wantNEQ {
		muts := Mutators()
		mut := muts[rng.Intn(len(muts))]
		src := a
		if rng.Intn(2) == 1 {
			src = opt.Resyn2(a, dev)
		}
		m, ok := mut.Apply(src, rng)
		if !ok {
			m = src
		}
		b = m
		c.Kind = "neq-" + mut.Name + "/" + family
	} else {
		switch {
		case alt != nil && rng.Intn(2) == 1:
			b = alt
			c.Kind = "eq-arch/" + family
		case rng.Intn(3) == 0:
			b = opt.Balance(a)
			c.Kind = "eq-balance/" + family
		default:
			b = opt.Resyn2(a, dev)
			c.Kind = "eq-resyn2/" + family
		}
	}

	m, err := miter.Build(a, b)
	if err != nil {
		return Case{}, fmt.Errorf("difftest: building %s miter: %w", c.Kind, err)
	}
	c.Miter = m
	c.Expected, c.Witness = groundTruth(dev, m, rng)
	if !wantNEQ && c.Expected != miter.Equivalent {
		// An equivalence-preserving construction that the oracle refutes
		// would be an optimizer bug; surface it as a malformed case so
		// the harness fails loudly rather than recording NEQ agreement.
		if c.Expected == miter.NotEquivalent {
			return c, fmt.Errorf("difftest: %s case (seed %d) expected EQ but oracle found witness %v", c.Kind, seed, c.Witness)
		}
	}
	return c, nil
}

// groundTruth establishes the case's expected verdict: the truth-table
// oracle when the miter is narrow enough, otherwise a bounded random
// witness search (2048 packed patterns). The witness, when found, is
// validated by replay before being trusted.
func groundTruth(dev *par.Device, m *aig.AIG, rng *rand.Rand) (miter.Outcome, []bool) {
	if m.NumPIs() <= OracleMaxPIs {
		return TruthTable(m)
	}
	p := sim.NewPartial(dev, m.NumPIs(), 32, rng.Int63())
	sims, err := p.Simulate(m)
	if err != nil {
		// The harness device is never fault-injected, so this is a real
		// kernel bug; report no ground truth rather than guess from garbage.
		return miter.Undecided, nil
	}
	if po, cex := p.FindNonZeroPO(m, sims); po >= 0 {
		if CEXDistinguishes(dev, m, cex) {
			return miter.NotEquivalent, cex
		}
	}
	return miter.Undecided, nil
}
