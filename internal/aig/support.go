package aig

import "sort"

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

// SupportSets holds capped per-node structural supports. Nodes whose
// support exceeds the cap carry a nil set and Big[id] = true; the engine
// only ever needs exact supports up to its simulatable thresholds.
type SupportSets struct {
	Cap  int
	Sets [][]int32
	Big  []bool
}

// Size returns the support size of node id, or -1 when it exceeds the cap.
func (s *SupportSets) Size(id int) int {
	if s.Big[id] {
		return -1
	}
	return len(s.Sets[id])
}

// Union returns the sorted union of the supports of ids a and b, or nil and
// false when either is over the cap or the union exceeds it.
func (s *SupportSets) Union(a, b int) ([]int32, bool) {
	if s.Big[a] || s.Big[b] {
		return nil, false
	}
	sa, sb := s.Sets[a], s.Sets[b]
	u, ok := mergeCapped(make([]int32, 0, min(len(sa)+len(sb), s.Cap)), sa, sb, s.Cap)
	if !ok {
		return nil, false
	}
	return u, true
}

// supportBlock is the size in ids of one arena block of SupportsCapped.
const supportBlock = 1 << 14

// SupportsCapped computes the structural support of every node bottom-up,
// abandoning (marking Big) any node whose support grows beyond limit. The
// total work is O(nodes · limit). The sets share arena blocks; each is
// clipped to its own length (a[i:j:j]), so appending to one copies it
// instead of writing into its neighbour.
func (g *AIG) SupportsCapped(limit int) *SupportSets {
	n := len(g.nodes)
	s := &SupportSets{Cap: limit, Sets: make([][]int32, n), Big: make([]bool, n)}
	var arena []int32
	for id := 1; id < n; id++ {
		nd := g.nodes[id]
		var a, b []int32
		if nd.f0 != litInvalid {
			i0, i1 := nd.f0.ID(), nd.f1.ID()
			if s.Big[i0] || s.Big[i1] {
				s.Big[id] = true
				continue
			}
			a, b = s.Sets[i0], s.Sets[i1]
		}
		if need := max(1, min(len(a)+len(b), limit)); cap(arena)-len(arena) < need {
			arena = make([]int32, 0, max(supportBlock, need))
		}
		start := len(arena)
		if nd.f0 == litInvalid {
			arena = append(arena, int32(id)) // a PI's support, whatever the cap
		} else if u, ok := mergeCapped(arena, a, b, limit); ok {
			arena = u
		} else {
			s.Big[id] = true
			continue
		}
		s.Sets[id] = arena[start:len(arena):len(arena)]
	}
	return s
}

// mergeCapped appends the merge of two sorted, duplicate-free id slices to
// dst. It stops, returning false, as soon as the merge would hold more than
// limit ids.
func mergeCapped(dst, a, b []int32, limit int) ([]int32, bool) {
	end := len(dst) + limit
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if len(dst) >= end {
			return dst, false
		}
		switch {
		case j == len(b) || i < len(a) && a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst, true
}
