//go:build race

package core

// raceEnabled reports a -race build: the race runtime randomly drops
// sync.Pool items, so allocation budgets do not hold under it.
const raceEnabled = true
