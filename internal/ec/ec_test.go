package ec

import (
	"math/rand"
	"testing"
)

// sigFunc builds a signature accessor from a map.
func sigFunc(sigs map[int][]uint64) func(int) []uint64 {
	return func(id int) []uint64 { return sigs[id] }
}

func TestBuildGroupsEqualSignatures(t *testing.T) {
	sigs := map[int][]uint64{
		0: {0, 0},
		1: {0xDEAD, 0xBEEF},
		2: {0xDEAD, 0xBEEF},
		3: {0x1234, 0x5678},
	}
	m := Build(4, sigFunc(sigs), func(int) bool { return true })
	if m.NumClasses() != 1 {
		t.Fatalf("classes = %d, want 1", m.NumClasses())
	}
	r, ok := m.Repr(2)
	if !ok || r != 1 {
		t.Fatalf("Repr(2) = %d,%v, want 1,true", r, ok)
	}
	if _, ok := m.Repr(3); ok {
		t.Fatal("singleton node 3 has a representative")
	}
	if _, ok := m.Repr(1); ok {
		t.Fatal("representative 1 reported as non-representative")
	}
	p, ok := m.PairOf(2)
	if !ok || p.Repr != 1 || p.Member != 2 || p.Compl {
		t.Fatalf("PairOf(2) = %v,%v", p, ok)
	}
}

func TestPhaseNormalisationMergesComplement(t *testing.T) {
	// Node 2 is the bitwise complement of node 1; both signatures start
	// with different low bits so they normalise into the same class.
	sigs := map[int][]uint64{
		0: {0},
		1: {0b1010},          // bit0 = 0, kept
		2: {^uint64(0b1010)}, // bit0 = 1, complemented to 0b1010
	}
	m := Build(3, sigFunc(sigs), func(int) bool { return true })
	if m.NumClasses() != 1 {
		t.Fatalf("classes = %d, want 1", m.NumClasses())
	}
	p, ok := m.PairOf(2)
	if !ok || !p.Compl {
		t.Fatalf("complement pair not detected: %v,%v", p, ok)
	}
}

func TestConstantClass(t *testing.T) {
	// Node 1 simulates to all-zeros, node 2 to all-ones: both are
	// candidate constants sharing node 0's class.
	sigs := map[int][]uint64{
		0: {0, 0},
		1: {0, 0},
		2: {^uint64(0), ^uint64(0)},
		3: {5, 5},
	}
	m := Build(4, sigFunc(sigs), func(int) bool { return true })
	p1, ok1 := m.PairOf(1)
	p2, ok2 := m.PairOf(2)
	if !ok1 || p1.Repr != 0 || p1.Compl {
		t.Fatalf("PairOf(1) = %v,%v", p1, ok1)
	}
	if !ok2 || p2.Repr != 0 || !p2.Compl {
		t.Fatalf("PairOf(2) = %v,%v (want complement constant)", p2, ok2)
	}
}

func TestIncludeFilter(t *testing.T) {
	sigs := map[int][]uint64{0: {0}, 1: {7}, 2: {7}, 3: {7}}
	m := Build(4, sigFunc(sigs), func(id int) bool { return id != 2 })
	cls := m.Classes()
	if len(cls) != 1 || len(cls[0]) != 2 {
		t.Fatalf("classes = %v, want one class {1,3}", cls)
	}
	if m.ClassOf(2) != -1 {
		t.Fatal("excluded node assigned to a class")
	}
}

func TestPairsCountPerClass(t *testing.T) {
	// A class of N nodes produces N-1 candidate pairs (paper §II-B).
	sigs := map[int][]uint64{0: {0}}
	for id := 1; id <= 5; id++ {
		sigs[id] = []uint64{42}
	}
	for id := 6; id <= 8; id++ {
		sigs[id] = []uint64{99} // bit0 of 99 is 1, so these normalise complemented
	}
	m := Build(9, sigFunc(sigs), func(int) bool { return true })
	pairs := m.Pairs()
	if len(pairs) != 4+2 {
		t.Fatalf("pairs = %d, want 6", len(pairs))
	}
	if m.TotalCandidates() != len(pairs) {
		t.Fatal("TotalCandidates disagrees with Pairs")
	}
	for _, p := range pairs {
		if p.Repr >= p.Member {
			t.Fatalf("pair %v has repr >= member", p)
		}
	}
}

func TestAccessors(t *testing.T) {
	sigs := map[int][]uint64{0: {0}, 1: {6}, 2: {6}}
	m := Build(3, sigFunc(sigs), func(int) bool { return true })
	if m.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", m.NumNodes())
	}
	if m.Phase(1) || m.Phase(2) {
		t.Fatal("phase set for bit0=0 signatures")
	}
	p, _ := m.PairOf(2)
	if s := p.String(); s != "(2 == 1)" {
		t.Fatalf("pair string = %q", s)
	}
	p.Compl = true
	if s := p.String(); s != "(2 =! 1)" {
		t.Fatalf("complement pair string = %q", s)
	}
}

func TestDifferentLengthSignaturesSeparate(t *testing.T) {
	// sameWords length guard: differing word counts never collide.
	sigs := map[int][]uint64{0: {0}, 1: {6, 0}, 2: {6}}
	m := Build(3, sigFunc(sigs), func(int) bool { return true })
	if m.NumClasses() != 0 {
		t.Fatalf("length-mismatched signatures merged: %v", m.Classes())
	}
}

func TestHashCollisionsSeparateClasses(t *testing.T) {
	// Many random signatures: nodes must only share classes with truly
	// equal normalised signatures, regardless of hash behaviour.
	rng := rand.New(rand.NewSource(11))
	n := 2000
	sigs := make(map[int][]uint64, n)
	sigs[0] = []uint64{0}
	for id := 1; id < n; id++ {
		// Few distinct values to force large classes.
		v := uint64(rng.Intn(8)) << 1 // keep bit0 = 0
		sigs[id] = []uint64{v}
	}
	m := Build(n, sigFunc(sigs), func(int) bool { return true })
	for _, cls := range m.Classes() {
		want := sigs[int(cls[0])][0]
		for _, id := range cls {
			if sigs[int(id)][0] != want {
				t.Fatalf("class mixes signatures %x and %x", want, sigs[int(id)][0])
			}
		}
	}
	// Every pair of nodes with equal signature must share a class.
	byVal := map[uint64][]int{}
	for id := 0; id < n; id++ {
		byVal[sigs[id][0]] = append(byVal[sigs[id][0]], id)
	}
	for v, ids := range byVal {
		if len(ids) < 2 {
			continue
		}
		c := m.ClassOf(ids[0])
		for _, id := range ids[1:] {
			if m.ClassOf(id) != c {
				t.Fatalf("signature %x split across classes", v)
			}
		}
	}
}

func TestClassesInRepresentativeOrder(t *testing.T) {
	// 64 two-member classes, members interleaved (i and 64+i share a
	// signature): the classes come out by ascending representative id, the
	// order the SAT sweep's pairs follow, whatever the map's iteration
	// order.
	sigs := map[int][]uint64{0: {0}}
	for i := 1; i <= 64; i++ {
		sigs[i] = []uint64{uint64(i) << 1}
		sigs[64+i] = []uint64{uint64(i) << 1}
	}
	m := Build(129, sigFunc(sigs), func(int) bool { return true })
	if m.NumClasses() != 64 {
		t.Fatalf("classes = %d, want 64", m.NumClasses())
	}
	for i, members := range m.Classes() {
		if members[0] != int32(i+1) {
			t.Fatalf("class %d has representative %d, want %d", i, members[0], i+1)
		}
	}
}
