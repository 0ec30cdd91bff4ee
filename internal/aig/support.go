package aig

import (
	"math/bits"
	"sort"
)

// SupportOf returns the sorted PI node ids in the transitive fanin of root.
func (g *AIG) SupportOf(root int) []int32 {
	return g.SupportOfMany([]int{root})
}

// SupportOfMany returns the sorted union of the supports of the roots.
func (g *AIG) SupportOfMany(roots []int) []int32 {
	seen := make(map[int]bool)
	var sup []int32
	var stack []int
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.IsPI(id) {
			sup = append(sup, int32(id))
			continue
		}
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.Fanins(id)
		for _, f := range [2]Lit{f0, f1} {
			if fid := f.ID(); !seen[fid] {
				seen[fid] = true
				stack = append(stack, fid)
			}
		}
	}
	sort.Slice(sup, func(i, j int) bool { return sup[i] < sup[j] })
	return sup
}

// SupportSets holds capped per-node structural supports as sparse PI
// bitsets: a node's support is a run of (word, mask) entries in ascending
// word order, where bit b of the entry for word w stands for the PI of
// index 64·w+b. A union is a word-wise OR and a size a popcount. A node
// whose support exceeds the cap keeps no entries and has size -1, so a
// node holds at most Cap entries however many PIs the graph has. Sorted PI
// node ids are expanded only on request (Set, Union), into blocks that the
// sets share; each is clipped to its own length (a[i:j:j]), so appending
// to one copies it instead of writing into its neighbour. Set and Union
// write those blocks, so a SupportSets is for one goroutine.
type SupportSets struct {
	Cap int

	pis  []int32  // PI node ids by PI index
	size []int32  // support size per node; -1 above the cap
	off  []int32  // node id's entries are word[off[id]:off[id+1]]
	word []int32  // entry word indices
	mask []uint64 // entry masks, parallel to word
	out  []int32  // the current expansion block
}

// Size returns the support size of node id, or -1 when it exceeds the cap.
func (s *SupportSets) Size(id int) int { return int(s.size[id]) }

// Big reports whether the support of node id exceeds the cap.
func (s *SupportSets) Big(id int) bool { return s.size[id] < 0 }

// Set returns the sorted PI node ids of the support of node id, or nil
// when it exceeds the cap.
func (s *SupportSets) Set(id int) []int32 {
	if s.size[id] < 0 {
		return nil
	}
	dst := s.alloc(int(s.size[id]))
	for e := s.off[id]; e < s.off[id+1]; e++ {
		dst = s.expand(dst, s.word[e], s.mask[e])
	}
	return dst
}

// Union returns the sorted union of the supports of ids a and b, or nil and
// false when either is over the cap or the union exceeds it.
func (s *SupportSets) Union(a, b int) ([]int32, bool) {
	if s.size[a] < 0 || s.size[b] < 0 {
		return nil, false
	}
	i, ie, j, je := s.off[a], s.off[a+1], s.off[b], s.off[b+1]
	n := 0
	for i < ie || j < je {
		_, m := s.next(&i, ie, &j, je)
		if n += bits.OnesCount64(m); n > s.Cap {
			return nil, false
		}
	}
	dst := s.alloc(n)
	i, j = s.off[a], s.off[b]
	for i < ie || j < je {
		w, m := s.next(&i, ie, &j, je)
		dst = s.expand(dst, w, m)
	}
	return dst, true
}

// next returns the entry of the union of the sorted entry runs [i, ie) and
// [j, je) at the lower of their next words, ORing two entries of the same
// word, and advances past it.
func (s *SupportSets) next(i *int32, ie int32, j *int32, je int32) (int32, uint64) {
	switch {
	case *j == je || *i < ie && s.word[*i] < s.word[*j]:
		*i++
		return s.word[*i-1], s.mask[*i-1]
	case *i == ie || s.word[*j] < s.word[*i]:
		*j++
		return s.word[*j-1], s.mask[*j-1]
	}
	*i++
	*j++
	return s.word[*i-1], s.mask[*i-1] | s.mask[*j-1]
}

// expand appends the PI node ids of one entry to dst in ascending order:
// PI ids ascend with the PI index, because both follow creation order.
func (s *SupportSets) expand(dst []int32, w int32, m uint64) []int32 {
	base := int(w) << 6
	for ; m != 0; m &= m - 1 {
		dst = append(dst, s.pis[base+bits.TrailingZeros64(m)])
	}
	return dst
}

// supportBlock is the size in ids of one expansion block of SupportSets.
const supportBlock = 1 << 12

// alloc returns an empty slice with room for exactly n ids, cut from the
// current expansion block.
func (s *SupportSets) alloc(n int) []int32 {
	if cap(s.out)-len(s.out) < n {
		s.out = make([]int32, 0, max(supportBlock, n))
	}
	start := len(s.out)
	s.out = s.out[:start+n]
	return s.out[start:start:(start + n)]
}

// SupportsCapped computes the structural support of every node bottom-up,
// abandoning (size -1) any node whose support grows beyond limit. A PI's
// support is itself, whatever the cap. The work per AND is a merge of its
// fanins' entry runs, at most limit entries each, and is usually one or two
// word ORs and popcounts.
func (g *AIG) SupportsCapped(limit int) *SupportSets {
	n := len(g.nodes)
	s := &SupportSets{
		Cap:  limit,
		pis:  g.pis,
		size: make([]int32, n),
		off:  make([]int32, n+1),
		word: make([]int32, 0, n),
		mask: make([]uint64, 0, n),
	}
	pi := 0
	for id := 1; id < n; id++ {
		nd := g.nodes[id]
		start := int32(len(s.word))
		s.off[id] = start
		if nd.f0 == litInvalid {
			s.word = append(s.word, int32(pi>>6))
			s.mask = append(s.mask, 1<<uint(pi&63))
			s.size[id] = 1
			pi++
			continue
		}
		a, b := nd.f0.ID(), nd.f1.ID()
		if s.size[a] < 0 || s.size[b] < 0 {
			s.size[id] = -1
			continue
		}
		i, ie, j, je := s.off[a], s.off[a+1], s.off[b], s.off[b+1]
		size := 0
		for i < ie || j < je {
			w, m := s.next(&i, ie, &j, je)
			if size += bits.OnesCount64(m); size > limit {
				break
			}
			s.word = append(s.word, w)
			s.mask = append(s.mask, m)
		}
		if size > limit {
			s.word, s.mask = s.word[:start], s.mask[:start]
			size = -1
		}
		s.size[id] = int32(size)
	}
	s.off[n] = int32(len(s.word))
	return s
}
