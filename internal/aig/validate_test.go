package aig

import (
	"math/rand"
	"testing"
)

func TestValidateCleanGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		g := randomAIG(rng, 6, 80)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if err := New().Validate(); err != nil {
		t.Fatalf("empty AIG invalid: %v", err)
	}
}

func TestValidateSurvivesRollbackAndDouble(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	ab := g.And(a, b)
	cp := g.Checkpoint()
	g.And(ab, a.Not())
	g.Rollback(cp)
	g.AddPO(ab)
	if err := g.Validate(); err != nil {
		t.Fatalf("after rollback: %v", err)
	}
	if err := DoubleN(g, 2).Validate(); err != nil {
		t.Fatalf("after doubling: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	ab := g.And(a, b)
	g.AddPO(ab)

	// Corrupt the strash table: drop the AND's entry, move it off its
	// probe path, hash it twice.
	bad := g.Copy()
	slot, _ := bad.lookup(a, b)
	bad.strash[slot] = 0
	if bad.Validate() == nil {
		t.Fatal("missing strash entry not detected")
	}
	bad = g.Copy()
	slot, _ = bad.lookup(a, b)
	bad.strash[slot] = 0
	bad.strash[(slot-1)&uint32(len(bad.strash)-1)] = int32(ab.ID())
	if bad.Validate() == nil {
		t.Fatal("strash entry off its probe path not detected")
	}
	bad = g.Copy()
	slot, _ = bad.lookup(a, b)
	bad.strash[(slot+1)&uint32(len(bad.strash)-1)] = int32(ab.ID())
	if bad.Validate() == nil {
		t.Fatal("twice-hashed AND not detected")
	}

	// Unordered fanins.
	bad = g.Copy()
	bad.nodes[ab.ID()] = node{f1: a, f0: b} // b > a flipped
	if bad.Validate() == nil {
		t.Fatal("unordered fanins not detected")
	}

	// Forward reference.
	bad = g.Copy()
	bad.nodes[ab.ID()] = node{f0: a, f1: MakeLit(ab.ID(), false)}
	if bad.Validate() == nil {
		t.Fatal("self-referencing fanin not detected")
	}

	// PO out of range.
	bad = g.Copy()
	bad.pos[0] = MakeLit(999, false)
	if bad.Validate() == nil {
		t.Fatal("out-of-range PO not detected")
	}
}
