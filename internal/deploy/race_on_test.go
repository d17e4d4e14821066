//go:build race

package deploy

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random share of its items and every allocation is
// instrumented, so heap readings only repeat on uninstrumented builds.
const raceEnabled = true
