package simsweep

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func genPair(t *testing.T, name string, scale int) (*AIG, *AIG) {
	t.Helper()
	g, err := Generate(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return g, Optimize(g)
}

func TestAllEnginesAgreeOnEquivalentPair(t *testing.T) {
	g, o := genPair(t, "multiplier", 6)
	for _, e := range Engines() {
		engine := e.Name
		res, err := CheckEquivalence(g, o, Options{Engine: engine, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Outcome != Equivalent {
			t.Fatalf("%s: outcome = %v", engine, res.Outcome)
		}
	}
}

func TestAllEnginesAgreeOnBuggyPair(t *testing.T) {
	g, o := genPair(t, "multiplier", 6)
	bad := o.Copy()
	bad.SetPO(4, bad.PO(4).Not())
	m, err := BuildMiter(g, bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Engines() {
		engine := e.Name
		res, err := CheckMiter(m, Options{Engine: engine, Seed: 8})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Outcome != NotEquivalent {
			t.Fatalf("%s: outcome = %v", engine, res.Outcome)
		}
		if res.CEX != nil {
			fired := false
			for _, v := range m.Eval(res.CEX) {
				fired = fired || v
			}
			if !fired {
				t.Fatalf("%s: CEX does not fire the miter", engine)
			}
		}
	}
}

func TestHybridReportsSimReduction(t *testing.T) {
	g, o := genPair(t, "multiplier", 7)
	res, err := CheckEquivalence(g, o, Options{Engine: EngineHybrid, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Equivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.ReducedPercent < 99.9 {
		t.Fatalf("sim engine reduced only %.1f%%", res.ReducedPercent)
	}
	if res.SimStats == nil || len(res.SimPhases) == 0 {
		t.Fatal("sim statistics missing from hybrid result")
	}
}

func TestInterfaceMismatchRejected(t *testing.T) {
	a, err := Generate("adder", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("adder", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckEquivalence(a, b, Options{}); err == nil {
		t.Fatal("mismatched interfaces accepted")
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	g, _ := genPair(t, "adder", 4)
	if _, err := CheckEquivalence(g, g, Options{Engine: "quantum"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestAIGERRoundTripThroughPublicAPI(t *testing.T) {
	g, err := Generate("voter", 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAIGER(&buf, g, true); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAIGER(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckEquivalence(g, back, Options{Engine: EngineSim, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Equivalent {
		t.Fatalf("AIGER round trip broke the function: %v", res.Outcome)
	}
}

func TestDoubleEnlargement(t *testing.T) {
	g, err := Generate("adder", 4)
	if err != nil {
		t.Fatal(err)
	}
	d := Double(g, 2)
	if d.NumPIs() != 4*g.NumPIs() || d.NumPOs() != 4*g.NumPOs() {
		t.Fatalf("double x2 interface: %d PIs %d POs", d.NumPIs(), d.NumPOs())
	}
	// Doubled circuits must still verify against their doubled optimized
	// versions — the construction of every Table II miter.
	od := Double(Optimize(g), 2)
	res, err := CheckEquivalence(d, od, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Equivalent {
		t.Fatalf("doubled miter: %v", res.Outcome)
	}
}

func TestBenchmarkNamesGenerate(t *testing.T) {
	for _, name := range BenchmarkNames() {
		g, err := Generate(name, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumAnds() == 0 {
			t.Fatalf("%s: empty circuit", name)
		}
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	g, o := genPair(t, "multiplier", 6)
	var got []Outcome
	for _, workers := range []int{1, 4} {
		res, err := CheckEquivalence(g, o, Options{Engine: EngineSim, Workers: workers, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Outcome)
	}
	if got[0] != got[1] || got[0] != Equivalent {
		t.Fatalf("verdicts differ across worker counts: %v", got)
	}
}

func TestStoppedDistinguishesCancelledRun(t *testing.T) {
	g, o := genPair(t, "multiplier", 8)
	stop := make(chan struct{})
	close(stop)
	for _, e := range Engines() {
		engine := e.Name
		res, err := CheckEquivalence(g, o, Options{Engine: engine, Seed: 3, Stop: stop})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Outcome != Undecided {
			t.Fatalf("%s: cancelled run decided the miter: %v", engine, res.Outcome)
		}
		if !res.Stopped {
			t.Fatalf("%s: cancelled undecided run not marked Stopped", engine)
		}
	}
	// Control: an uncancelled run must not claim it was stopped.
	res, err := CheckEquivalence(g, o, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Equivalent || res.Stopped {
		t.Fatalf("clean run: outcome=%v stopped=%v", res.Outcome, res.Stopped)
	}
}

// TestPortfolioLosersStopWithTheVerdict pins loser cancellation: once the
// portfolio returns, every member — the BDD engine included, which alone
// runs for seconds on this pair — sees the merged stop and exits, so the
// goroutine count is back to its baseline within a second.
func TestPortfolioLosersStopWithTheVerdict(t *testing.T) {
	g, o := genPair(t, "multiplier", 10)
	base := runtime.NumGoroutine()
	res, err := CheckEquivalence(g, o, Options{Engine: EnginePortfolio, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Equivalent {
		t.Fatalf("outcome = %v (engine %s)", res.Outcome, res.EngineUsed)
	}
	deadline := time.Now().Add(time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 1s after the verdict (won by %s), %d before the check", n, res.EngineUsed, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStopMidRunReturnsPromptlyAndDeviceIsReusable(t *testing.T) {
	// A miter whose SAT sweep runs for seconds, 8-bit array against Booth
	// multipliers, which share no internal structure: cancel it mid-run
	// and require a prompt, clean return that leaves the shared device
	// usable for the next check (the service layer depends on both).
	g, err := Generate("multiplier", 8)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Generate("boothmul", 8)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(4)
	defer dev.Close()

	stop := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(stop)
	}()
	start := time.Now()
	res, err := CheckEquivalence(g, o, Options{Engine: EngineSAT, Seed: 5, Stop: stop, Dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled run returned only after %v", elapsed)
	}
	if res.Outcome == Undecided && !res.Stopped {
		t.Fatal("cancelled undecided run not marked Stopped")
	}
	if res.Outcome != Undecided {
		t.Fatalf("the check ended %v in %v, before the stop landed: the job is no longer slow", res.Outcome, res.Runtime)
	}

	// The device must be left reusable: run a small complete check on it.
	g2, o2 := genPair(t, "adder", 6)
	res2, err := CheckEquivalence(g2, o2, Options{Seed: 5, Dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != Equivalent || res2.Stopped {
		t.Fatalf("device unusable after cancellation: outcome=%v stopped=%v", res2.Outcome, res2.Stopped)
	}
}

func TestRandomisedCrossEngineAgreement(t *testing.T) {
	// Integration property: on random small circuits, all engines agree
	// with ground-truth enumeration.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		build := func(mutate bool) *AIG {
			r := rand.New(rand.NewSource(int64(trial)))
			g := NewAIG()
			var lits []Lit
			for i := 0; i < 6; i++ {
				lits = append(lits, g.AddPI())
			}
			for i := 0; i < 40; i++ {
				a := lits[r.Intn(len(lits))].NotIf(r.Intn(2) == 1)
				b := lits[r.Intn(len(lits))].NotIf(r.Intn(2) == 1)
				lits = append(lits, g.And(a, b))
			}
			out := lits[len(lits)-1]
			if mutate {
				out = g.Xor(out, g.And(lits[7], lits[9]))
			}
			g.AddPO(out)
			return g
		}
		mutate := trial%2 == 1
		g1, g2 := build(false), build(mutate)
		same := true
		for pat := 0; pat < 64; pat++ {
			in := make([]bool, 6)
			for i := range in {
				in[i] = (pat>>uint(i))&1 == 1
			}
			if g1.Eval(in)[0] != g2.Eval(in)[0] {
				same = false
				break
			}
		}
		for _, engine := range []Engine{EngineHybrid, EngineSim, EngineSAT, EngineBDD} {
			res, err := CheckEquivalence(g1, g2, Options{Engine: engine, Seed: rng.Int63()})
			if err != nil {
				t.Fatal(err)
			}
			want := Equivalent
			if !same {
				want = NotEquivalent
			}
			if res.Outcome != want {
				t.Fatalf("trial %d %s: outcome = %v, want %v", trial, engine, res.Outcome, want)
			}
		}
	}
}
