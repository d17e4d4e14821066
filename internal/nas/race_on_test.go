//go:build race

package nas

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random share of its items, so exact allocation counts
// only hold on uninstrumented builds.
const raceEnabled = true
