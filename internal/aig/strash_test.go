package aig

import (
	"math/rand"
	"testing"
)

// strashWorld is one graph of an operation stream together with its
// reference model: a Go map from the ordered fanin pair of every AND to its
// node id, and the fanins of every node (zero for the constant and PIs).
type strashWorld struct {
	g      *AIG
	ref    map[[2]Lit]int
	fanins [][2]Lit
	cps    []checkpoint // open checkpoints, oldest first
}

// checkpoint is a Checkpoint together with the table size at that point.
type checkpoint struct{ nodes, slots int }

// andKind tells how And answered: by a trivial rule, from the table, or
// with a new node.
type andKind int

const (
	folded andKind = iota
	hashed
	added
)

// and is And on the reference model.
func (w *strashWorld) and(a, b Lit) (Lit, andKind) {
	switch {
	case a == False || b == False || a == b.Not():
		return False, folded
	case a == True:
		return b, folded
	case b == True || a == b:
		return a, folded
	}
	if a > b {
		a, b = b, a
	}
	k := [2]Lit{a, b}
	if id, ok := w.ref[k]; ok {
		return MakeLit(id, false), hashed
	}
	id := len(w.fanins)
	w.fanins = append(w.fanins, k)
	w.ref[k] = id
	return MakeLit(id, false), added
}

// rollback is Rollback on the reference model.
func (w *strashWorld) rollback(cp int) {
	for id := len(w.fanins) - 1; id >= cp; id-- {
		delete(w.ref, w.fanins[id])
	}
	w.fanins = w.fanins[:cp]
}

func (w *strashWorld) copy() *strashWorld {
	c := &strashWorld{
		g:      w.g.Copy(),
		ref:    make(map[[2]Lit]int, len(w.ref)),
		fanins: append([][2]Lit(nil), w.fanins...),
		cps:    append([]checkpoint(nil), w.cps...),
	}
	for k, id := range w.ref {
		c.ref[k] = id
	}
	return c
}

// check compares the graph with its model: the node count, the fanins of
// every AND and a clean Validate, which finds every AND at its own slot and
// counts the table's entries.
func (w *strashWorld) check() string {
	if w.g.NumNodes() != len(w.fanins) {
		return "node count differs from the model"
	}
	for id, k := range w.fanins {
		if !w.g.IsAnd(id) {
			if k != ([2]Lit{}) {
				return "an AND of the model is no AND"
			}
			continue
		}
		if f0, f1 := w.g.Fanins(id); [2]Lit{f0, f1} != k {
			return "fanins differ from the model"
		}
	}
	if err := w.g.Validate(); err != nil {
		return err.Error()
	}
	return ""
}

// strashCoverage counts the events of an operation stream that the table's
// harder paths depend on.
type strashCoverage struct {
	hits          int // And calls answered by the table
	folds         int // And calls answered by a trivial rule
	growRollbacks int // rollbacks over a table growth
	copiesEdited  int // copies whose original and copy both changed later
}

// runStrashOps interprets data as a stream of graph operations on up to
// three graphs — And with repeats, constants, complemented and swapped
// fanins, Checkpoint, Rollback and Copy — and checks every graph against
// its reference model after each step. It returns "" and the stream's
// coverage, or a description of the first divergence.
func runStrashOps(data []byte) (string, strashCoverage) {
	var cov strashCoverage
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return -1
		}
		pos++
		return int(data[pos-1])
	}
	first := next()
	if first < 0 {
		return "", cov
	}
	root := &strashWorld{g: New(), ref: map[[2]Lit]int{}, fanins: [][2]Lit{{}}}
	for i := 0; i < 3+first%4; i++ {
		root.g.AddPI()
		root.fanins = append(root.fanins, [2]Lit{})
	}
	worlds := []*strashWorld{root}
	edited := make([]bool, 1) // world changed since it was last copied
	copied := make([]int, 1)  // index of the world it was copied from, or -1
	copied[0] = -1
	for {
		op, sel := next(), next()
		if op < 0 || sel < 0 {
			return "", cov
		}
		wi := sel % len(worlds)
		w := worlds[wi]
		n := w.g.NumNodes()
		switch op % 8 {
		case 0, 1, 2, 3: // And over any literals, constants included
			x, y := next(), next()
			if y < 0 {
				return "", cov
			}
			a := MakeLit(x>>1%n, x&1 == 1)
			b := MakeLit(y>>1%n, y&1 == 1)
			want, kind := w.and(a, b)
			if w.g.And(a, b) != want {
				return "And returned a literal the model does not", cov
			}
			switch kind {
			case hashed:
				cov.hits++
			case folded:
				cov.folds++
			}
		case 4: // an existing AND again, fanins swapped and in order
			ands, k := n-1-w.g.NumPIs(), next()
			if k < 0 {
				return "", cov
			}
			if ands == 0 {
				continue
			}
			id := n - 1 - k%ands
			f0, f1 := w.g.Fanins(id)
			if w.g.And(f1, f0) != MakeLit(id, false) || w.g.And(f0, f1) != MakeLit(id, false) {
				return "a repeated And missed its node", cov
			}
			cov.hits++
		case 5:
			w.cps = append(w.cps, checkpoint{w.g.Checkpoint(), len(w.g.strash)})
			continue
		case 6:
			k := next()
			if k < 0 {
				return "", cov
			}
			if len(w.cps) == 0 {
				continue
			}
			k %= len(w.cps)
			cp := w.cps[k]
			w.cps = w.cps[:k]
			if len(w.g.strash) > cp.slots {
				cov.growRollbacks++
			}
			w.g.Rollback(cp.nodes)
			w.rollback(cp.nodes)
		case 7:
			if len(worlds) == 3 {
				continue
			}
			worlds = append(worlds, w.copy())
			edited = append(edited, false)
			copied = append(copied, wi)
			edited[wi] = false
			continue
		}
		edited[wi] = true
		for i, c := range copied {
			if c >= 0 && edited[i] && edited[c] {
				cov.copiesEdited++
				copied[i] = -1
			}
		}
		for _, w := range worlds {
			if msg := w.check(); msg != "" {
				return msg, cov
			}
		}
	}
}

// TestStrashMatchesMap is the property of the structural hash table: over
// seeded operation streams, every And returns the literal a map-based
// model returns, node counts match, Validate stays clean, and a copy and
// its original stay independent under different edits. The streams must
// reach the table's harder paths: rollbacks over a growth and edited
// copies.
func TestStrashMatchesMap(t *testing.T) {
	var total strashCoverage
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 600)
		rng.Read(data)
		msg, cov := runStrashOps(data)
		if msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
		total.hits += cov.hits
		total.folds += cov.folds
		total.growRollbacks += cov.growRollbacks
		total.copiesEdited += cov.copiesEdited
	}
	t.Logf("coverage: %+v", total)
	if total.hits == 0 || total.folds == 0 || total.growRollbacks == 0 || total.copiesEdited == 0 {
		t.Fatalf("streams miss a path of the table: %+v", total)
	}
}

// FuzzStrash runs arbitrary operation streams against the map model.
func FuzzStrash(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 0, 4, 6, 1, 0, 9, 12, 5, 0, 0, 0, 20, 31, 7, 0, 0, 1, 40, 41, 6, 0, 0, 0, 1, 9, 9})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 64<<i)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg, _ := runStrashOps(data); msg != "" {
			t.Fatal(msg)
		}
	})
}
