//go:build race

package service

// The race detector allocates on paths that are allocation-free in a
// normal build (and sync.Pool drops items at random under it), so the
// allocation budgets are enforced only without -race.
func init() { raceEnabled = true }
