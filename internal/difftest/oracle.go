package difftest

import (
	"fmt"

	"simsweep/internal/aig"
	"simsweep/internal/miter"
	"simsweep/internal/par"
	"simsweep/internal/sim"
)

// OracleMaxPIs is the widest miter the truth-table oracle accepts: 2^16
// patterns (1024 simulation words) keeps a full exhaustive check well under
// a millisecond on small miters while covering every input assignment.
const OracleMaxPIs = 16

// TruthTable is the brute-force oracle: it simulates every one of the
// 2^NumPIs input assignments through the miter with 64-way packed words
// and returns Equivalent when every output is zero everywhere, or
// NotEquivalent plus the lexicographically first distinguishing assignment.
// It is the top of the oracle hierarchy (truth-table ≻ BDD ≻ SAT ≻
// simsweep): complete, simple enough to trust, and feasible only because
// the harness keeps its miters at most OracleMaxPIs wide. It panics on
// wider miters — callers gate on Backend.Applicable.
func TruthTable(m *aig.AIG) (miter.Outcome, []bool) {
	n := m.NumPIs()
	if n > OracleMaxPIs {
		panic(fmt.Sprintf("difftest: truth-table oracle over %d PIs (max %d)", n, OracleMaxPIs))
	}
	patterns := uint64(1) << uint(n)
	words := int((patterns + 63) / 64)

	val := make([]uint64, m.NumNodes())
	piWord := func(pi int, w int) uint64 {
		if pi < 6 {
			// Repeating masks: pi 0 alternates every bit, pi 5 every 32.
			return repeatMask[pi]
		}
		if (w>>(uint(pi)-6))&1 == 1 {
			return ^uint64(0)
		}
		return 0
	}
	for w := 0; w < words; w++ {
		val[0] = 0
		for i := 0; i < n; i++ {
			val[m.PIID(i)] = piWord(i, w)
		}
		for id := 1; id < m.NumNodes(); id++ {
			if !m.IsAnd(id) {
				continue
			}
			f0, f1 := m.Fanins(id)
			v0 := val[f0.ID()]
			if f0.IsCompl() {
				v0 = ^v0
			}
			v1 := val[f1.ID()]
			if f1.IsCompl() {
				v1 = ^v1
			}
			val[id] = v0 & v1
		}
		// Mask off the padding lanes of the last word (n < 6 only).
		var valid uint64
		if patterns >= 64 {
			valid = ^uint64(0)
		} else {
			valid = (uint64(1) << patterns) - 1
		}
		for i := 0; i < m.NumPOs(); i++ {
			po := m.PO(i)
			v := val[po.ID()]
			if po.IsCompl() {
				v = ^v
			}
			if v &= valid; v != 0 {
				bit := uint(0)
				for v&1 == 0 {
					v >>= 1
					bit++
				}
				index := uint64(w)<<6 | uint64(bit)
				cex := make([]bool, n)
				for pi := 0; pi < n; pi++ {
					cex[pi] = index>>uint(pi)&1 == 1
				}
				return miter.NotEquivalent, cex
			}
		}
	}
	return miter.Equivalent, nil
}

// repeatMask[i] is the packed truth-table word of variable i for i < 6.
var repeatMask = [6]uint64{
	0xaaaaaaaaaaaaaaaa,
	0xcccccccccccccccc,
	0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00,
	0xffff0000ffff0000,
	0xffffffff00000000,
}

// CEXDistinguishes replays a counter-example through the partial simulator
// (the engine's own replay path) and, independently, through the reference
// single-bit evaluator, and reports whether the pattern drives some miter
// output to 1 under both. Both replays must agree — a divergence would be a
// simulator bug in its own right — so the harness treats "false" from
// either as an invalid counter-example. A nil or wrongly-sized cex is
// never valid.
func CEXDistinguishes(dev *par.Device, m *aig.AIG, cex []bool) bool {
	if len(cex) != m.NumPIs() {
		return false
	}
	if m.NumPIs() == 0 {
		// A closed miter has exactly one assignment — the empty one; it
		// distinguishes iff some output is the constant 1. There is nothing
		// to bank for the partial simulator, so only the evaluator applies.
		for _, v := range m.Eval(nil) {
			if v {
				return true
			}
		}
		return false
	}
	// Reference: single-bit evaluation.
	refHit := false
	for _, v := range m.Eval(cex) {
		if v {
			refHit = true
			break
		}
	}
	// Engine path: pack the pattern into a partial-simulator bank word and
	// sweep it through the miter on the device.
	p := sim.NewPartial(dev, m.NumPIs(), 1, 0)
	assign := make([]sim.PIValue, len(cex))
	for i, v := range cex {
		assign[i] = sim.PIValue{Index: i, Value: v}
	}
	p.AddPattern(assign)
	sims, err := p.Simulate(m)
	if err != nil {
		// The harness device carries no fault injector, so a failed sweep
		// here is a real kernel bug; fall back to the reference evaluator
		// alone rather than invalidate a possibly-good counter-example.
		return refHit
	}
	// The queued pattern occupies bit 0 of the last bank word; the first
	// word is random filler the constructor insists on.
	w := p.Words() - 1
	simHit := false
	for i := 0; i < m.NumPOs(); i++ {
		po := m.PO(i)
		v := sims[po.ID()][w]&1 == 1
		if po.IsCompl() {
			v = !v
		}
		if v {
			simHit = true
			break
		}
	}
	return refHit && simHit
}
