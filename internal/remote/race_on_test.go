//go:build race

package remote

// raceEnabled reports whether the race detector is compiled in (it
// makes sync.Pool drop buffers at random, which distorts allocation
// budgets).
const raceEnabled = true
