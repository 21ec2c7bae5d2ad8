//go:build race

package datagen

// The race detector drops sync.Pool items at random and instruments
// allocations, so the allocation budgets hold only without it; CI runs
// them in a step of their own without -race.
func init() { raceEnabled = true }
