package portfolio

import (
	"testing"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/bdd"
	"simsweep/internal/miter"
	"simsweep/internal/satsweep"
)

func xorMiter(equivalent bool) *aig.AIG {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	x1 := g.Xor(a, b)
	x2 := g.And(g.Or(a, b), g.And(a, b).Not())
	if !equivalent {
		x2 = g.Or(a, b)
	}
	g.AddPO(g.Xor(x1, x2))
	return g
}

func bddEngine(limit int) Engine {
	return Engine{
		Name: "bdd",
		Run: func(m *aig.AIG, stop <-chan struct{}) (miter.Outcome, []bool) {
			equal, cex, err := bdd.CheckMiter(m, limit, stop)
			if err != nil {
				return miter.Undecided, nil
			}
			if equal {
				return miter.Equivalent, nil
			}
			return miter.NotEquivalent, cex
		},
	}
}

func satEngine() Engine {
	return Engine{
		Name: "satsweep",
		Run: func(m *aig.AIG, stop <-chan struct{}) (miter.Outcome, []bool) {
			res := satsweep.CheckMiter(m, satsweep.Options{Stop: stop, Seed: 11})
			return res.Outcome, res.CEX
		},
	}
}

func TestPortfolioEquivalent(t *testing.T) {
	res := Check(xorMiter(true), []Engine{bddEngine(0), satEngine()})
	if res.Outcome != miter.Equivalent {
		t.Fatalf("verdict = %v (engine %s)", res.Outcome, res.Engine)
	}
	if res.Engine == "" {
		t.Fatal("no winning engine recorded")
	}
}

func TestPortfolioInequivalent(t *testing.T) {
	m := xorMiter(false)
	res := Check(m, []Engine{bddEngine(0), satEngine()})
	if res.Outcome != miter.NotEquivalent {
		t.Fatalf("verdict = %v", res.Outcome)
	}
	if res.Engine == "bdd" && res.CEX == nil {
		t.Fatal("bdd won without a counter-example")
	}
	if res.CEX != nil {
		fired := false
		for _, v := range m.Eval(res.CEX) {
			fired = fired || v
		}
		if !fired {
			t.Fatalf("CEX %v does not fire the miter", res.CEX)
		}
	}
}

func TestPortfolioAllUndecided(t *testing.T) {
	undecided := Engine{
		Name: "stub",
		Run: func(m *aig.AIG, stop <-chan struct{}) (miter.Outcome, []bool) {
			return miter.Undecided, nil
		},
	}
	res := Check(xorMiter(true), []Engine{undecided, undecided})
	if res.Outcome != miter.Undecided {
		t.Fatalf("verdict = %v", res.Outcome)
	}
	if res.Engine != "" {
		t.Fatalf("undecided run credited engine %q", res.Engine)
	}
}

func TestPortfolioCancelsLosers(t *testing.T) {
	cancelled := make(chan struct{})
	slow := Engine{
		Name: "slow",
		Run: func(m *aig.AIG, stop <-chan struct{}) (miter.Outcome, []bool) {
			select {
			case <-stop:
				close(cancelled)
				return miter.Undecided, nil
			case <-time.After(10 * time.Second):
				return miter.Undecided, nil
			}
		},
	}
	fast := Engine{
		Name: "fast",
		Run: func(m *aig.AIG, stop <-chan struct{}) (miter.Outcome, []bool) {
			return miter.Equivalent, nil
		},
	}
	start := time.Now()
	res := Check(xorMiter(true), []Engine{slow, fast})
	if res.Outcome != miter.Equivalent || res.Engine != "fast" {
		t.Fatalf("res = %+v", res)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("portfolio waited for the slow engine")
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("loser engine was not cancelled")
	}
}
