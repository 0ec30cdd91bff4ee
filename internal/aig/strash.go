package aig

import (
	"fmt"
	"math/bits"
)

// The structural hash table maps the fanin pair of every AND node to its
// id. As in ABC's GIA manager it is a plain array of node ids: a
// power-of-two []int32 with linear probing, where 0 marks an empty slot
// (node 0 is the constant, never an AND) and a probe compares the pair it
// looks for with g.nodes[id], so a slot takes 4 bytes and the fanins live
// only in the node array. The table doubles before it is more than half
// full. Rollback deletes by clearing slots, newest AND first, which leaves
// no gap in any probe run, so no tombstones are needed (see unhash).

// minStrashSlots is the size of the smallest table.
const minStrashSlots = 16

// fibHash is 2^64 divided by the golden ratio: the multiplier of
// Fibonacci hashing, whose top bits mix every bit of the key.
const fibHash = 0x9E3779B97F4A7C15

// home returns the slot where the probe for fanins (f0, f1) starts.
func (g *AIG) home(f0, f1 Lit) uint32 {
	return uint32((uint64(f0)<<32 | uint64(f1)) * fibHash >> g.strashShift)
}

// lookup returns the id of the AND with fanins (f0, f1) and its slot, or
// id 0 and the empty slot where that AND belongs.
func (g *AIG) lookup(f0, f1 Lit) (slot uint32, id int32) {
	mask := uint32(len(g.strash) - 1)
	for slot = g.home(f0, f1); ; slot = (slot + 1) & mask {
		id = g.strash[slot]
		if id == 0 {
			return slot, 0
		}
		if n := g.nodes[id]; n.f0 == f0 && n.f1 == f1 {
			return slot, id
		}
	}
}

// insert hashes AND id, already appended to the node array, into slot:
// the empty slot lookup returned for its fanins. When the entry would
// leave the table more than half full, the table doubles instead, which
// hashes every AND, id included.
func (g *AIG) insert(slot uint32, id int32) {
	if 2*g.NumAnds() > len(g.strash) {
		g.resizeStrash(len(g.strash))
		return
	}
	g.strash[slot] = id
}

// resizeStrash replaces the table by the smallest one (in powers of two,
// at least minStrashSlots) that holds entries ANDs at load ½ and hashes
// every AND of g into it. Callers pass at least g's AND count.
func (g *AIG) resizeStrash(entries int) {
	size := minStrashSlots
	for size < 2*entries {
		size <<= 1
	}
	g.strash = make([]int32, size)
	g.strashShift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := uint32(size - 1)
	for id := 1; id < len(g.nodes); id++ {
		n := g.nodes[id]
		if n.f0 == litInvalid {
			continue
		}
		slot := g.home(n.f0, n.f1)
		for g.strash[slot] != 0 {
			slot = (slot + 1) & mask
		}
		g.strash[slot] = int32(id)
	}
}

// unhash removes AND id, whose node is n, from the table by clearing its
// slot; no other entry moves. That is exact because Rollback, the only
// deletion, removes the newest AND first, and both And and the rehash of
// a growth place the ANDs in ascending id order: the newest AND is the
// last entry placed in its probe run, so clearing its slot leaves the
// table that the older ANDs alone would have built.
func (g *AIG) unhash(id int32, n node) {
	slot, hit := g.lookup(n.f0, n.f1)
	if hit != id {
		panic(fmt.Sprintf("aig: AND %d missing from the strash table", id))
	}
	g.strash[slot] = 0
}

// validateStrash checks the shape of the table: a power-of-two size with
// its hash shift, and one entry per AND, each an AND id, filling at most
// half the slots. Validate then looks every AND up; on a table of this
// shape every probe ends.
func (g *AIG) validateStrash() error {
	size := len(g.strash)
	if size < minStrashSlots || size&(size-1) != 0 || int(g.strashShift) != 64-bits.TrailingZeros(uint(size)) {
		return fmt.Errorf("aig: strash table of %d slots with shift %d", size, g.strashShift)
	}
	used := 0
	for slot, id := range g.strash {
		if id == 0 {
			continue
		}
		if int(id) >= len(g.nodes) || !g.IsAnd(int(id)) {
			return fmt.Errorf("aig: strash slot %d holds %d, not an AND", slot, id)
		}
		used++
	}
	if used != g.NumAnds() || 2*used > size {
		return fmt.Errorf("aig: strash has %d entries in %d slots for %d ANDs", used, size, g.NumAnds())
	}
	return nil
}
