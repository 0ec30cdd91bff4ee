// Package portfolio runs several CEC engines concurrently on one miter and
// returns the first definitive answer — the execution model the paper
// ascribes to commercial multi-threaded checkers ("run different engines
// simultaneously and early stop when an engine finishes"). It stands in for
// the Cadence Conformal LEC comparison column of Table II.
package portfolio

import (
	"sync"

	"simsweep/internal/aig"
	"simsweep/internal/miter"
)

// Result reports the winning engine's verdict.
type Result struct {
	Outcome miter.Outcome
	CEX     []bool // PI counter-example when NotEquivalent
	Engine  string // name of the engine that decided (or "" if none)
}

// Engine is one member of the portfolio. Run must watch stop and return
// Undecided promptly once it is closed.
type Engine struct {
	Name string
	Run  func(m *aig.AIG, stop <-chan struct{}) (miter.Outcome, []bool)
}

// Check runs all engines concurrently on m and returns as soon as one
// produces a definitive verdict, cancelling the rest. When every engine
// returns Undecided, so does Check.
func Check(m *aig.AIG, engines []Engine) Result {
	answers := make(chan Result, len(engines))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func(e Engine) {
			defer wg.Done()
			o, cex := e.Run(m, stop)
			answers <- Result{Outcome: o, CEX: cex, Engine: e.Name}
		}(e)
	}
	go func() {
		wg.Wait()
		close(answers)
	}()

	for a := range answers {
		if a.Outcome == miter.Undecided {
			continue
		}
		// First definitive answer wins: cancel the losers and return
		// immediately; a background goroutine drains their replies.
		close(stop)
		go func() {
			for range answers {
			}
		}()
		return a
	}
	close(stop)
	return Result{}
}
