package simsweep

// Cross-architecture equivalence: the strongest CEC workloads pit two
// genuinely different implementations of a specification against each
// other (no shared heritage, no optimizer lineage).

import (
	"testing"

	"simsweep/internal/gen"
)

func TestRippleVsKoggeStone(t *testing.T) {
	const w = 8
	rc, err := gen.Adder(w)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := gen.KoggeStoneAdder(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineHybrid, EngineSim, EngineSAT, EngineBDD} {
		res, err := CheckEquivalence(rc, ks, Options{Engine: engine, Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != Equivalent {
			t.Fatalf("%s: ripple vs Kogge-Stone = %v", engine, res.Outcome)
		}
	}
}

func TestArrayVsBoothMultiplier(t *testing.T) {
	const w = 6
	array, err := gen.Multiplier(w)
	if err != nil {
		t.Fatal(err)
	}
	booth, err := gen.MultiplierBooth(w)
	if err != nil {
		t.Fatal(err)
	}
	// Array × Booth is a hard miter: very little internal structural
	// similarity. The hybrid must still decide it.
	res, err := CheckEquivalence(array, booth, Options{Engine: EngineHybrid, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Equivalent {
		t.Fatalf("array vs booth = %v", res.Outcome)
	}

	// The Booth-vs-array miters of gen.BoothArrayMiter, both polarities:
	// the default engine must reach the verdict the generator promises,
	// and every counter-example must replay.
	for w := 5; w <= 8; w++ {
		for _, flip := range []bool{false, true} {
			m, err := gen.BoothArrayMiter(w, flip)
			if err != nil {
				t.Fatal(err)
			}
			want := Equivalent
			if flip {
				want = NotEquivalent
			}
			res, err := CheckMiter(m, Options{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != want {
				t.Fatalf("%s: outcome %v, want %v", m.Name, res.Outcome, want)
			}
			if !flip {
				continue
			}
			if len(res.CEX) != m.NumPIs() {
				t.Fatalf("%s: counter-example has %d inputs, want %d", m.Name, len(res.CEX), m.NumPIs())
			}
			fired := false
			for _, v := range m.Eval(res.CEX) {
				fired = fired || v
			}
			if !fired {
				t.Fatalf("%s: counter-example does not fire the miter", m.Name)
			}
		}
	}
}

func TestBoothWithInjectedRecodeBug(t *testing.T) {
	const w = 6
	array, err := gen.Multiplier(w)
	if err != nil {
		t.Fatal(err)
	}
	booth, err := gen.MultiplierBooth(w)
	if err != nil {
		t.Fatal(err)
	}
	bad := booth.Copy()
	// Flip the lowest product bit's polarity — a classic off-by-one in
	// the recoder.
	bad.SetPO(0, bad.PO(0).Not())
	m, err := BuildMiter(array, bad)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckMiter(m, Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != NotEquivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	fired := false
	for _, v := range m.Eval(res.CEX) {
		fired = fired || v
	}
	if !fired {
		t.Fatal("CEX does not separate the multipliers")
	}
}

func TestALUVersusRebuiltALU(t *testing.T) {
	a1, err := gen.ALU(6)
	if err != nil {
		t.Fatal(err)
	}
	a2 := Optimize(a1)
	res, err := CheckEquivalence(a1, a2, Options{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Equivalent {
		t.Fatalf("ALU vs optimized ALU = %v", res.Outcome)
	}
}
