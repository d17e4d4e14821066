//go:build !race

// Package race decides, in one place, whether this is a race-detector
// build. Under the detector sync.Pool drops a random share of its items
// and every allocation is instrumented, so exact allocation counts and
// heap readings only repeat on uninstrumented builds; and a -race build is
// the one that turns on the runtime checks: the SBI body-pool audit and
// the lock ranks.
package race

// Enabled reports whether the race detector is compiled in.
const Enabled = false
