package core

import (
	"bytes"
	"strings"
	"testing"

	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
)

func TestJournalRecordsProofs(t *testing.T) {
	g, err := gen.Multiplier(7)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	res := CheckMiter(mustMiter(t, g, o), smallConfig())
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if len(res.Journal) == 0 {
		t.Fatal("no journal entries for a non-trivially proved miter")
	}
	totalProved := 0
	for _, ph := range res.Phases {
		totalProved += ph.Proved
	}
	if len(res.Journal) != totalProved {
		t.Fatalf("journal has %d entries, phases proved %d", len(res.Journal), totalProved)
	}
	for i, e := range res.Journal {
		if e.Inputs <= 0 {
			t.Fatalf("entry %d has no window inputs: %+v", i, e)
		}
		if int(e.Member) <= e.Target.ID() && e.Target.ID() != 0 {
			t.Fatalf("entry %d merges into a younger target: %+v", i, e)
		}
	}
}

func TestJournalPhaseAttribution(t *testing.T) {
	// Starve P and G: every journal entry must be an L-phase proof.
	g, err := gen.Multiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	cfg := smallConfig()
	cfg.KP, cfg.Kp, cfg.Kg = 4, 4, 4
	res := CheckMiter(mustMiter(t, g, o), cfg)
	for i, e := range res.Journal {
		if e.Phase != PhaseL {
			t.Fatalf("entry %d attributed to phase %v under starved P/G", i, e.Phase)
		}
		if e.Inputs > cfg.Kl {
			t.Fatalf("entry %d used a window of %d inputs with Kl=%d", i, e.Inputs, cfg.Kl)
		}
	}
}

func TestKernelProfileAndLog(t *testing.T) {
	g, err := gen.Multiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Resyn2(g, nil)
	var logBuf bytes.Buffer
	cfg := smallConfig()
	// Starve P and G so that every phase kind runs and logs: a miter that
	// P proves ends after P.
	cfg.KP, cfg.Kp, cfg.Kg = 4, 4, 4
	cfg.Log = &logBuf
	res := CheckMiter(mustMiter(t, g, o), cfg)
	if res.Outcome != miter.Equivalent {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if !strings.Contains(res.KernelProfile, "kernel") {
		t.Fatalf("kernel profile missing:\n%s", res.KernelProfile)
	}
	out := logBuf.String()
	for _, want := range []string{"phase P:", "phase G:", "phase L:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log missing %q:\n%s", want, out)
		}
	}
}
