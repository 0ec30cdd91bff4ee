package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/difftest"
	"simsweep/internal/gen"
)

// instance is one check of an engine workload: two circuits as binary
// AIGER, exactly as a user would hand them over, and the verdict known by
// construction.
type instance struct {
	Name   string
	A, B   []byte
	Expect simsweep.Outcome
}

// family names one generated circuit: a simsweep.Generate family at a
// scale, doubled Double times, or a seeded control fabric of Words words.
type family struct {
	Name   string
	Scale  int
	Double int
	Words  int // control fabrics only
}

func (f family) String() string {
	s := fmt.Sprintf("%s-%d", f.Name, f.Scale)
	if f.Words > 0 {
		s = fmt.Sprintf("%s-w%d", f.Name, f.Words)
	}
	if f.Double > 0 {
		s += fmt.Sprintf("x%d", f.Double)
	}
	return s
}

// Control fabrics use the fabric seeds of gen.Benchmark, so the fabric set
// is the same for every workload seed (see README: seed-drawn fabrics moved
// the workload's pass time by far more than any regression bound).
const (
	ac97Seed = 97
	vgaSeed  = 64
)

// build generates the family's circuit.
func (f family) build() (*aig.AIG, error) {
	var g *aig.AIG
	var err error
	switch f.Name {
	case "ac97":
		g, err = gen.Control(gen.StyleAC97, f.Words, ac97Seed)
	case "vga":
		g, err = gen.Control(gen.StyleVGA, f.Words, vgaSeed)
	default:
		g, err = simsweep.Generate(f.Name, f.Scale)
	}
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", f, err)
	}
	if f.Double > 0 {
		g = simsweep.Double(g, f.Double)
	}
	return g, nil
}

// encode serialises g as binary AIGER.
func encode(g *aig.AIG) []byte {
	var buf bytes.Buffer
	if err := simsweep.WriteAIGER(&buf, g, true); err != nil {
		// Writing to a bytes.Buffer fails only on a malformed graph, which
		// the generators never build.
		panic(fmt.Sprintf("ledger: encode AIGER: %v", err))
	}
	return buf.Bytes()
}

// permuted applies one random PI permutation to both sides of a pair. The
// pair's verdict and size stay the same while its fingerprints, its node
// order and the simulation patterns each input sees are new.
func permuted(a, b *aig.AIG, rng *rand.Rand) (*aig.AIG, *aig.AIG) {
	perm := rng.Perm(a.NumPIs())
	return difftest.PermutePIs(a, perm), difftest.PermutePIs(b, perm)
}

// The instance sets are sized so that checks stay small enough to repeat
// many times per run. Larger instances (multiplier-12x1, vga-w12) spend
// their time in memory-bound simulation tables and moved by up to a third
// between runs as neighbouring load on the machine changed (README,
// "Calibration").

// datapathFamilies is the paper's home turf: arithmetic whose candidate
// pairs exhaustive simulation proves outright. These are the datapath
// families of the Table II quick suite.
var datapathFamilies = []family{
	{Name: "hyp", Scale: 6, Double: 1},
	{Name: "log2", Scale: 10, Double: 1},
	{Name: "multiplier", Scale: 8, Double: 1},
	{Name: "sqrt", Scale: 12, Double: 1},
	{Name: "square", Scale: 8, Double: 1},
	{Name: "sin", Scale: 10, Double: 1},
	{Name: "voter", Scale: 4, Double: 1},
}

// controlFamilies are wide, shallow fabrics where the L phase and the SAT
// fallback do nearly all the work. The widths are the ones where that holds:
// at other widths some of these fabrics spend seconds in the P phase.
var controlFamilies = []family{
	{Name: "ac97", Words: 7},
	{Name: "ac97", Words: 8},
	{Name: "ac97", Words: 10},
	{Name: "vga", Words: 5},
	{Name: "vga", Words: 6},
	{Name: "vga", Words: 7},
}

// bughuntFamilies are the bases of the NEQ workload; each gets one mutant
// per difftest mutator.
var bughuntFamilies = []family{
	{Name: "hyp", Scale: 6, Double: 1},
	{Name: "multiplier", Scale: 8, Double: 1},
	{Name: "sin", Scale: 10},
	{Name: "log2", Scale: 10},
	{Name: "square", Scale: 8},
	{Name: "voter", Scale: 4},
	{Name: "ac97", Words: 8},
	{Name: "vga", Words: 8},
}

// eqInstances builds one EQ instance per family: the family against its
// resyn2-optimised self.
func eqInstances(fams []family) ([]instance, error) {
	out := make([]instance, 0, len(fams))
	for _, f := range fams {
		g, err := f.build()
		if err != nil {
			return nil, err
		}
		out = append(out, instance{Name: f.String(), A: encode(g), B: encode(simsweep.Optimize(g)), Expect: simsweep.Equivalent})
	}
	return out, nil
}

// mutantDraws bounds the mutants drawn per (base, mutator) slot before the
// slot falls through to the next mutator (a symmetric base such as voter
// absorbs every input swap).
const mutantDraws = 16

// neqInstances builds the NEQ workload: every base against a mutant of its
// resyn2 side, one per mutator. The mutants are drawn from a fixed stream,
// so the instance set is the same for every seed.
func neqInstances(fams []family) ([]instance, error) {
	muts := difftest.Mutators()
	var out []instance
	for bi, f := range fams {
		g, err := f.build()
		if err != nil {
			return nil, err
		}
		o := simsweep.Optimize(g)
		for mi := range muts {
			mut, name, err := witnessedMutant(g, o, muts, mi, int64(bi*len(muts)+mi))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			out = append(out, instance{
				Name: f.String() + "/" + name, A: encode(g), B: encode(mut),
				Expect: simsweep.NotEquivalent,
			})
		}
	}
	return out, nil
}

// witnessedMutant applies mutator mi (falling through to the next ones) to
// o until a mutant comes out whose difference from g a random input vector
// shows through aig.Eval. Only such mutants are used: their NEQ verdict is
// known, not assumed.
func witnessedMutant(g, o *aig.AIG, muts []difftest.Mutator, mi int, stream int64) (*aig.AIG, string, error) {
	rng := rand.New(rand.NewSource(1000 + stream))
	for k := 0; k < len(muts); k++ {
		m := muts[(mi+k)%len(muts)]
		for d := 0; d < mutantDraws; d++ {
			mut, ok := m.Apply(o, rng)
			if ok && findWitness(g, mut, rng) != nil {
				return mut, m.Name, nil
			}
		}
	}
	return nil, "", fmt.Errorf("no witnessed mutant after %d draws", len(muts)*mutantDraws)
}

// witnessVectors is the number of random input vectors tried per mutant.
const witnessVectors = 256

// findWitness returns an input vector on which a and b differ, or nil when
// none of witnessVectors random vectors separates them.
func findWitness(a, b *aig.AIG, rng *rand.Rand) []bool {
	in := make([]bool, a.NumPIs())
	for v := 0; v < witnessVectors; v++ {
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		if differs(a, b, in) {
			return in
		}
	}
	return nil
}

// differs reports whether some output of a and b disagrees under input.
func differs(a, b *aig.AIG, input []bool) bool {
	if len(input) != a.NumPIs() || len(input) != b.NumPIs() {
		return false
	}
	oa, ob := a.Eval(input), b.Eval(input)
	for i := range oa {
		if oa[i] != ob[i] {
			return true
		}
	}
	return false
}
