package experiments

import (
	"runtime"
	"runtime/debug"
)

// FastPathAllocBudget is the DESIGN.md section-9 ceiling on heap
// allocations per registration on the full fast path (keep-alive batch-8,
// AV pool, binary SBI, with or without switchless rings, at any replica
// count). The path measures 89.4-91.2 inside an AllocWindow, so 100 is
// 10 % headroom. TestShardScaleFleetSpeedup holds every replica count to it
// and TestSwitchlessFastPathGates the classic and ring crossings;
// both skip it when RaceEnabled.
const FastPathAllocBudget = 100

// AllocWindow runs fn and returns the heap allocations it made. The
// window is what makes the count repeatable: with the collector off no
// sync.Pool is emptied mid-run, and on one P the run is one interleaving
// of the caller and the resident ring dispatchers rather than whichever
// the scheduler picked, so goroutine hand-offs stop leaking into the
// figure. Both settings are restored on return; bytes is the cumulative
// size of the same allocations.
func AllocWindow(fn func() error) (mallocs, bytes uint64, err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}
