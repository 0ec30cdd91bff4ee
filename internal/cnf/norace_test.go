//go:build !race

package cnf

// raceSlowdown scales the time bounds of tests run under the race
// detector; without it they hold as written.
const raceSlowdown = 1
