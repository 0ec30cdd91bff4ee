//go:build race

package cnf

// raceSlowdown scales the time bounds of tests run under the race
// detector, which slows this package's encoding and solving about tenfold.
const raceSlowdown = 10
