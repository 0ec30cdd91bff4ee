package sched

// EnginePrior accumulates one engine's track record in the rounds of one
// run so far: how often it was tried, how often it fully resolved the class
// it was given, and the SAT conflicts it consumed doing so.
type EnginePrior struct {
	// Attempts counts classes dispatched to the engine.
	Attempts uint64
	// Wins counts attempts that decided every pending pair of the class.
	Wins uint64
	// Conflicts is the total SAT conflicts consumed (zero for sim and BDD).
	Conflicts uint64
}

// WinRate returns the Laplace-smoothed win rate (Wins+1)/(Attempts+2), so
// an engine with no history scores a neutral 0.5 and a single failure
// cannot blacklist it forever.
func (p EnginePrior) WinRate() float64 {
	return float64(p.Wins+1) / float64(p.Attempts+2)
}

// AvgConflicts returns the mean SAT conflicts per attempt (0 without
// history).
func (p EnginePrior) AvgConflicts() float64 {
	if p.Attempts == 0 {
		return 0
	}
	return float64(p.Conflicts) / float64(p.Attempts)
}
