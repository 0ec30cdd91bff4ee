package fault

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseErrors(t *testing.T) {
	cases := []string{
		"no.such.hook",
		"par.worker.panic:p=2",
		"par.worker.panic:p=-0.5",
		"par.worker.panic:at=0",
		"par.worker.panic:every=0",
		"par.worker.panic:frobnicate=1",
		"par.worker.panic:p",
		"sim.round.stall:delay=-5ms",
		"sim.round.stall:delay=xyz",
		"par.worker.panic;par.worker.panic",
		"cube.solve.panic",
	}
	for _, spec := range cases {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) = nil error, want error", spec)
		}
	}
}

func TestParseEmptySpecDisabled(t *testing.T) {
	in, err := Parse("", 1)
	if err != nil {
		t.Fatalf("Parse empty: %v", err)
	}
	for _, h := range Hooks() {
		if in.Fire(h) {
			t.Errorf("empty injector fired %s", h)
		}
		if in.Armed(h) {
			t.Errorf("empty injector armed %s", h)
		}
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.Fire(HookWorkerPanic) {
		t.Error("nil injector fired")
	}
	if in.Delay(HookSimStall) != 0 {
		t.Error("nil injector has a delay")
	}
	if in.Counts() != nil || in.Visits() != nil {
		t.Error("nil injector has counts")
	}
	if in.Armed(HookSATOOM) {
		t.Error("nil injector armed")
	}
	if in.String() != "" {
		t.Error("nil injector has a spec")
	}
	in.Panic(HookWorkerPanic) // must not panic
	in.Stall(HookSimStall)    // must not sleep
}

func TestAtFiresExactlyOnce(t *testing.T) {
	in := MustParse("par.worker.panic:at=3", 7)
	for i := 1; i <= 10; i++ {
		fired := in.Fire(HookWorkerPanic)
		if fired != (i == 3) {
			t.Fatalf("visit %d: fired=%v", i, fired)
		}
	}
	if got := in.Counts()[HookWorkerPanic]; got != 1 {
		t.Fatalf("fired count = %d, want 1", got)
	}
	if got := in.Visits()[HookWorkerPanic]; got != 10 {
		t.Fatalf("visit count = %d, want 10", got)
	}
}

func TestEveryAndLimit(t *testing.T) {
	in := MustParse("satsweep.pair.oom:every=2,limit=3", 7)
	fires := 0
	for i := 1; i <= 20; i++ {
		if in.Fire(HookSATOOM) {
			fires++
			if i%2 != 0 {
				t.Fatalf("fired on odd visit %d", i)
			}
		}
	}
	if fires != 3 {
		t.Fatalf("fires = %d, want 3 (limit)", fires)
	}
	if got := in.Counts()[HookSATOOM]; got != 3 {
		t.Fatalf("fired count = %d, want 3", got)
	}
}

func TestProbabilityDeterministicInSeed(t *testing.T) {
	run := func(seed int64) []bool {
		in := MustParse("par.worker.panic:p=0.3", seed)
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Fire(HookWorkerPanic)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at visit %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical fire sequences")
	}
	fires := 0
	for _, f := range a {
		if f {
			fires++
		}
	}
	if fires < 30 || fires > 90 {
		t.Errorf("p=0.3 over 200 visits fired %d times, want roughly 60", fires)
	}
}

func TestProbabilityEdges(t *testing.T) {
	always := MustParse("par.worker.panic:p=1", 1)
	never := MustParse("sim.round.stall:p=0", 1)
	for i := 0; i < 50; i++ {
		if !always.Fire(HookWorkerPanic) {
			t.Fatal("p=1 did not fire")
		}
		if never.Fire(HookSimStall) {
			t.Fatal("p=0 fired")
		}
	}
}

func TestDefaultEntryAlwaysFires(t *testing.T) {
	in := MustParse("service.runner.crash", 1)
	for i := 0; i < 5; i++ {
		if !in.Fire(HookRunnerCrash) {
			t.Fatal("param-less entry did not fire")
		}
	}
}

func TestDelayParam(t *testing.T) {
	in := MustParse("sim.round.stall:p=0,delay=7ms", 1)
	if got := in.Delay(HookSimStall); got != 7*time.Millisecond {
		t.Fatalf("Delay = %v, want 7ms", got)
	}
	def := MustParse("sim.round.stall:p=0", 1)
	if got := def.Delay(HookSimStall); got != defaultStall {
		t.Fatalf("default Delay = %v, want %v", got, defaultStall)
	}
}

func TestPanicCarriesInjectedFault(t *testing.T) {
	in := MustParse("satsweep.pair.oom:at=1", 1)
	defer func() {
		r := recover()
		f, ok := r.(*InjectedFault)
		if !ok {
			t.Fatalf("recovered %T, want *InjectedFault", r)
		}
		if f.Hook != HookSATOOM {
			t.Fatalf("fault hook = %q", f.Hook)
		}
		if !strings.Contains(f.Error(), HookSATOOM) {
			t.Fatalf("Error() = %q", f.Error())
		}
	}()
	in.Panic(HookSATOOM)
	t.Fatal("Panic did not panic")
}

// TestConcurrentFire drives one at= hook and one limited hook from many
// goroutines: exactly one (resp. limit) fires must be observed, with no
// races. Run under -race by make chaos.
func TestConcurrentFire(t *testing.T) {
	in := MustParse("par.worker.panic:at=100;satsweep.pair.oom:p=0.5,limit=10", 99)
	var wg sync.WaitGroup
	var panicFires, oomFires atomic64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if in.Fire(HookWorkerPanic) {
					panicFires.add(1)
				}
				if in.Fire(HookSATOOM) {
					oomFires.add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := panicFires.load(); got != 1 {
		t.Errorf("at=100 fired %d times across goroutines, want 1", got)
	}
	if got := oomFires.load(); got != 10 {
		t.Errorf("limit=10 fired %d times, want 10", got)
	}
}

// atomic64 is a tiny test-local counter.
type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

func TestStringRoundTrip(t *testing.T) {
	spec := "par.worker.panic:at=1;sim.round.stall:p=0.1,delay=5ms"
	in := MustParse(spec, 1)
	if in.String() != spec {
		t.Fatalf("String() = %q, want %q", in.String(), spec)
	}
	if !in.Armed(HookWorkerPanic) || !in.Armed(HookSimStall) || in.Armed(HookSATOOM) {
		t.Fatal("armed set wrong")
	}
}
