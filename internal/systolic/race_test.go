//go:build race

package systolic_test

// raceEnabled reports a -race build. There sync.Pool drops a random share of
// its Puts, so the allocation count of a pooled path is not deterministic.
const raceEnabled = true
