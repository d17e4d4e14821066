//go:build race

package experiments

// RaceEnabled reports whether the race detector is compiled in. The
// instrumented runtime allocates shadow state that MemStats counts, so
// the FastPathAllocBudget assertions only hold on uninstrumented builds —
// the plain `go test ./...` of tier-1 is the run that gates them.
const RaceEnabled = true
