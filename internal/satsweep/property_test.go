package satsweep_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/aiger"
	"simsweep/internal/difftest"
	"simsweep/internal/miter"
	"simsweep/internal/par"
	"simsweep/internal/satsweep"
)

// truthTables returns every node's truth table over all 2^n input patterns
// of m (n at most 16): pattern p sets PI i to bit i of p.
func truthTables(m *aig.AIG) [][]uint64 {
	words := max(1, (1<<m.NumPIs())/64)
	tt := make([][]uint64, m.NumNodes())
	tt[0] = make([]uint64, words)
	for id := 1; id < m.NumNodes(); id++ {
		tt[id] = make([]uint64, words)
	}
	for i := 0; i < m.NumPIs(); i++ {
		row := tt[m.PIID(i)]
		for w := range row {
			for b := 0; b < 64; b++ {
				if (w*64+b)>>i&1 == 1 {
					row[w] |= 1 << b
				}
			}
		}
	}
	for id := 1; id < m.NumNodes(); id++ {
		if !m.IsAnd(id) {
			continue
		}
		f0, f1 := m.Fanins(id)
		for w := range tt[id] {
			tt[id][w] = (tt[f0.ID()][w] ^ -uint64(f0&1)) & (tt[f1.ID()][w] ^ -uint64(f1&1))
		}
	}
	return tt
}

// sameFunction reports whether literal a of graph ga and literal b of gb
// have one truth table.
func sameFunction(ta, tb [][]uint64, a, b aig.Lit) bool {
	for w := range ta[a.ID()] {
		if ta[a.ID()][w]^-uint64(a&1) != tb[b.ID()][w]^-uint64(b&1) {
			return false
		}
	}
	return true
}

func fires(m *aig.AIG, cex []bool) bool {
	if len(cex) != m.NumPIs() {
		return false
	}
	for _, v := range m.Eval(cex) {
		if v {
			return true
		}
	}
	return false
}

// sweepRun is everything a sweep over one miter decides: the merges of
// the bare sweep, and the verdict, counter-example, reduced miter,
// statistics and charge of CheckMiter and of a budgeted CheckPOs.
type sweepRun struct {
	merges           []miter.Merge
	sweepCEX         []bool
	checked, attempt satsweep.Result
	charge           int64
	stalled          []int
	sweepStats       satsweep.Stats
	checkedPOs       []aig.Lit
	attemptPOs       []aig.Lit
}

func runSweeps(m *aig.AIG, words, workers int, budget int64) sweepRun {
	dev := par.NewDevice(workers)
	defer dev.Close()
	opt := satsweep.WithSimWords(satsweep.Options{Dev: dev, Seed: 3}, words)
	var r sweepRun
	r.merges, r.sweepCEX, r.sweepStats = satsweep.Sweep(m, opt, 0)
	r.checked = satsweep.CheckMiter(m, opt)
	r.attempt, r.charge, r.stalled = satsweep.CheckPOs(m, opt, budget, nil)
	for i := 0; i < m.NumPOs(); i++ {
		r.checkedPOs = append(r.checkedPOs, r.checked.Reduced.PO(i))
		r.attemptPOs = append(r.attemptPOs, r.attempt.Reduced.PO(i))
	}
	// Runtimes differ from run to run; nothing else may.
	r.sweepStats.Runtime, r.checked.Stats.Runtime, r.attempt.Stats.Runtime = 0, 0, 0
	r.checked.Reduced, r.attempt.Reduced = nil, nil
	return r
}

// checkSweep checks one miter, with the given words of random stimulus,
// against the truth-table oracle: every merge of the sweep joins two nodes
// with one truth table, the sweep of a NEQ miter ends on a counter-example,
// CheckMiter reaches the oracle's verdict, every
// counter-example fires the miter through aig.Eval, the miters that
// CheckMiter and a budgeted CheckPOs hand back compute m's POs, and all of
// it, merges and charge included, is the same on 1, 2 and 4 device
// workers. seen sums the work that shows which paths the checks reached.
func checkSweep(t *testing.T, name string, m *aig.AIG, words int, seen *satsweep.Stats) {
	t.Helper()
	name = fmt.Sprintf("%s, %d words", name, words)
	want, _ := difftest.TruthTable(m)
	tt := truthTables(m)
	budget := int64(miter.LiveAnds(m)) / 4
	dev := par.NewDevice(1)
	merges, sweepCEX, st := satsweep.Sweep(m, satsweep.WithSimWords(satsweep.Options{Dev: dev, Seed: 3}, words), 0)
	seen.Pairs.Proved += st.Pairs.Proved
	seen.Pairs.Disproved += st.Pairs.Disproved
	seen.Structural += st.Structural
	dev.Close()
	for _, mg := range merges {
		if !sameFunction(tt, tt, aig.MakeLit(int(mg.Member), false), mg.Target) {
			t.Fatalf("%s: the sweep merged node %d into %v, which differs from it", name, mg.Member, mg.Target)
		}
	}
	if sweepCEX != nil && !fires(m, sweepCEX) {
		t.Fatalf("%s: the sweep's counter-example %v does not fire the miter", name, sweepCEX)
	}
	// With no budget every node is asked against its class, and the
	// constant's class holds every PO node that no pattern fired, so the
	// sweep of a NEQ miter ends on a pattern that fires a PO.
	if want == miter.NotEquivalent && sweepCEX == nil {
		t.Fatalf("%s: the sweep of a NEQ miter ended without a counter-example", name)
	}
	dev = par.NewDevice(1)
	opt := satsweep.WithSimWords(satsweep.Options{Dev: dev, Seed: 3}, words)
	checked := satsweep.CheckMiter(m, opt)
	attempt, _, _ := satsweep.CheckPOs(m, opt, budget, nil)
	dev.Close()
	// Of the attempt: POs that ran out of their share, and the pairs of the
	// sweeps that followed.
	seen.POs.Unknown += attempt.Stats.POs.Unknown
	seen.Pairs.Asked += attempt.Stats.Pairs.Asked
	if checked.Outcome != want {
		t.Fatalf("%s: CheckMiter says %v, the truth table %v", name, checked.Outcome, want)
	}
	for _, res := range []satsweep.Result{checked, attempt} {
		switch res.Outcome {
		case miter.NotEquivalent:
			if want != miter.NotEquivalent || !fires(m, res.CEX) {
				t.Fatalf("%s: counter-example %v does not fire the miter", name, res.CEX)
			}
		case miter.Equivalent:
			if want != miter.Equivalent {
				t.Fatalf("%s: proved a miter the truth table refutes", name)
			}
		}
		if res.Outcome == miter.NotEquivalent {
			continue
		}
		rt := truthTables(res.Reduced)
		for i := 0; i < m.NumPOs(); i++ {
			if !sameFunction(tt, rt, m.PO(i), res.Reduced.PO(i)) {
				t.Fatalf("%s: the reduced miter's PO %d differs from the miter's", name, i)
			}
		}
	}
	one := runSweeps(m, words, 1, budget)
	for _, workers := range []int{2, 4} {
		if other := runSweeps(m, words, workers, budget); !reflect.DeepEqual(one, other) {
			t.Fatalf("%s: the sweep on %d device workers differs from one worker's:\n%+v\n%+v", name, workers, other, one)
		}
	}
}

// TestSweepProperties runs checkSweep over the first cases of the
// differential harness's stream (master seed 1, at most 16 PIs; random,
// resyn2 and mutated pairs, EQ and NEQ) and over the checked-in corpus,
// with the default random stimulus and with one word of it, so that false
// candidates reach SAT and their counter-examples refine the classes.
func TestSweepProperties(t *testing.T) {
	dev := par.NewDevice(2)
	defer dev.Close()
	kinds := map[miter.Outcome]int{}
	var seen satsweep.Stats
	for i := 0; i < 120; i++ {
		c, err := difftest.GenerateCase(dev, 1, i, difftest.OracleMaxPIs)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := difftest.TruthTable(c.Miter)
		kinds[want]++
		for _, words := range []int{0, 1} {
			checkSweep(t, fmt.Sprintf("case %d (%s)", i, c.Kind), c.Miter, words, &seen)
		}
	}
	if kinds[miter.Equivalent] == 0 || kinds[miter.NotEquivalent] == 0 {
		t.Fatalf("verdicts %v: the cases do not cover both", kinds)
	}
	const corpus = "../../testdata/difftest/corpus"
	entries, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".aag") && !strings.HasSuffix(e.Name(), ".aig") {
			continue
		}
		m, err := aiger.ReadFile(filepath.Join(corpus, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if m.NumPIs() > difftest.OracleMaxPIs {
			continue
		}
		for _, words := range []int{0, 1} {
			checkSweep(t, e.Name(), m, words, &seen)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no corpus miter within the oracle's width")
	}
	if seen.Pairs.Proved == 0 || seen.Pairs.Disproved == 0 || seen.Structural == 0 || seen.POs.Unknown == 0 || seen.Pairs.Asked == 0 {
		t.Fatalf("work %+v: the checks miss a path (pair proofs and disproofs, structural merges, attempts that sweep)", seen)
	}
}
