package satsweep

import (
	"simsweep/internal/aig"
	"simsweep/internal/miter"
)

// WithSimWords returns opt with n words of random stimulus instead of the
// default.
func WithSimWords(opt Options, n int) Options {
	opt.simWords = n
	return opt
}

// Sweep runs the sweep of CheckMiter over m, under a budget of unanswered
// conflicts when budget > 0, and returns the merges it proved, the
// counter-example of a pattern that fired a PO, and its statistics.
func Sweep(m *aig.AIG, opt Options, budget int64) ([]miter.Merge, []bool, Stats) {
	opt.fill()
	var meter *charge
	if budget > 0 {
		meter = &charge{budget: budget}
	}
	var stats Stats
	s, cex, err := newSweeper(m, &opt, meter, &stats)
	if err != nil {
		panic(err)
	}
	if cex != nil {
		return nil, cex, stats
	}
	cex, _ = s.sweep()
	return s.merges, cex, stats
}
