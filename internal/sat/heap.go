package sat

// varHeap is a max-heap of variables ordered by activity, with an index
// map for decrease/increase-key updates (the VSIDS order).
type varHeap struct {
	activity *[]float64
	heap     []int
	indices  []int // position in heap, -1 when absent
	// member and epoch mark the member set of a heap made by build: the
	// variables whose member entry equals epoch.
	member []uint32
	epoch  uint32
}

func newVarHeap(activity *[]float64) *varHeap {
	return &varHeap{activity: activity}
}

func (h *varHeap) less(a, b int) bool {
	act := *h.activity
	return act[h.heap[a]] > act[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.indices[h.heap[a]] = a
	h.indices[h.heap[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.heap) && h.less(l, best) {
			best = l
		}
		if r < len(h.heap) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// push inserts a variable unless the heap holds it, growing the index map
// for a new one.
func (h *varHeap) push(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.insert(v)
}

func (h *varHeap) insert(v int) {
	h.indices[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.up(h.indices[v])
}

// pushIn re-inserts a variable of the heap's member set (see build) after
// unassignment; any other variable stays out.
func (h *varHeap) pushIn(v int) {
	if h.member[v] == h.epoch && h.indices[v] < 0 {
		h.insert(v)
	}
}

// build makes the heap hold exactly the variables vs, which become its
// member set, in activity order.
func (h *varHeap) build(vs []int) {
	n := len(*h.activity)
	for len(h.indices) < n {
		h.indices = append(h.indices, -1)
		h.member = append(h.member, 0)
	}
	h.epoch++
	for _, v := range vs {
		if h.member[v] != h.epoch {
			h.member[v] = h.epoch
			h.indices[v] = len(h.heap)
			h.heap = append(h.heap, v)
		}
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// clear empties the heap.
func (h *varHeap) clear() {
	for _, v := range h.heap {
		h.indices[v] = -1
	}
	h.heap = h.heap[:0]
}

// pop removes and returns the highest-activity variable.
func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, true
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v int) {
	if v < len(h.indices) && h.indices[v] >= 0 {
		h.up(h.indices[v])
	}
}
