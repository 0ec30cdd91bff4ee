package difftest_test

import (
	"testing"

	"simsweep/internal/difftest"
	"simsweep/internal/miter"
	"simsweep/internal/par"
)

// FuzzBackendAgreement is the native fuzz entry of the differential
// harness: every (seed, index) pair names one generated miter, and every
// backend must agree on it. `go test` replays the seed corpus below;
// `go test -fuzz FuzzBackendAgreement` explores new seeds.
func FuzzBackendAgreement(f *testing.F) {
	for _, s := range []int64{1, 2, 3, 42, -1} {
		f.Add(s, uint8(0))
	}
	f.Fuzz(func(t *testing.T, seed int64, index uint8) {
		dev := par.NewDevice(2)
		defer dev.Close()
		c, err := difftest.GenerateCase(dev, seed, int(index)%64, 12)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		backends := difftest.DefaultBackends(2, seed)
		rep := difftest.CrossCheck(dev, backends, c)
		for _, fail := range rep.Failures {
			t.Errorf("seed=%d index=%d kind=%s: %s[%s]: %s",
				seed, index, c.Kind, fail.Kind, fail.Backend, fail.Detail)
		}
	})
}

// FuzzCexValidity focuses on the counter-example contract: for every
// generated miter, every NotEquivalent answer must carry a counter-example
// that replays to a non-zero miter output through the simulator.
func FuzzCexValidity(f *testing.F) {
	for _, s := range []int64{1, 7, 99} {
		f.Add(s, uint8(1))
	}
	f.Fuzz(func(t *testing.T, seed int64, index uint8) {
		dev := par.NewDevice(2)
		defer dev.Close()
		c, err := difftest.GenerateCase(dev, seed, int(index)%64, 12)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		for _, b := range difftest.DefaultBackends(2, seed) {
			if !b.Applicable(c.Miter) {
				continue
			}
			res := b.Check(c.Miter)
			if res.Verdict != miter.NotEquivalent {
				continue
			}
			if len(res.CEX) == 0 {
				t.Errorf("%s: NEQ without cex on seed=%d index=%d (%s)", b.Name, seed, index, c.Kind)
				continue
			}
			if !difftest.CEXDistinguishes(dev, c.Miter, res.CEX) {
				t.Errorf("%s: invalid cex %v on seed=%d index=%d (%s)", b.Name, res.CEX, seed, index, c.Kind)
			}
		}
	})
}
