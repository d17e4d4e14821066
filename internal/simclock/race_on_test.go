//go:build race

package simclock

// raceEnabled reports whether the race detector is compiled in; under it
// sync.Pool drops a random share of its items, so allocation counts do
// not repeat.
const raceEnabled = true
