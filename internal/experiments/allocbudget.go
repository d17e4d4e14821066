package experiments

import (
	"runtime"
	"runtime/debug"

	"shield5g/internal/race"
)

// FastPathAllocBudget is the DESIGN.md section-9 ceiling on heap
// allocations per registration on the full fast path (keep-alive batch-8,
// AV pool, binary SBI, with or without switchless rings, at any replica
// count). The path measures 30.7-31.1 inside an AllocWindow (32.6-33.1
// while every charge on a context without an account allocated a
// throwaway one and the AUSF and the UDM each copied a SUCI's scheme
// output out of its frame, when the budget was 36.4; 35.6-35.8
// while an AV pool refill allocated its request scratch, the served pairs'
// storage, its crossing's handler and thread and a heap copy of K, and
// the NAS codec copied the UE's security capabilities to the heap, when
// the budget was 39.4; 44.7-45.1
// while NAS PDUs and security contexts were allocated per message and
// per activation, when the budget was 49.6, 49.7-50.0
// while typed SBI clients returned heap responses, the P-AKA client did
// new(Resp) per call and the UDR's client let its request escape, 56.6-57.0
// while the SBI decoded SUPIs and auth-context IDs as strings, 68.6-69.2
// while every NAS message built or decoded reached the heap through the
// nas.Message interface, 72.7-73.2 while each registration allocated its
// account and its contexts, 88.8-91.2 while the SBI carried the AKA values
// as []byte and every handler allocated its response), so 34.2 is 10 %
// headroom.
// TestShardScaleFleetSpeedup holds every replica count to it and
// TestSwitchlessFastPathGates the classic and ring crossings; both skip it
// when race.Enabled.
const FastPathAllocBudget = 34.2

// UnbatchedAllocBudget is the DESIGN.md section-9 ceiling on heap
// allocations per registration on the unbatched path: the paper's
// deployment (SGX, JSON SBI, a connection per request, no AV pool),
// provisioning included. The path measures 54.2-57.0 inside an
// AllocWindow (60.2-63.2 while every charge on a context without an
// account, provisioning's among them, allocated a throwaway one, when the
// budget was 69.5; 65.3-67.9 while the eUDM copied K to the heap on every
// crossing, the UDR allocated each answer's backing, the AUSF and the UDM
// each SUCI they decoded, and the NAS codec the UE's security
// capabilities, when the budget was 74.7; 75.3-77.8 while NAS PDUs and
// security contexts were allocated per message and per activation, when
// the budget was 85.6,
// 85.3-87.8 while typed SBI clients returned heap responses
// and the AMF and AUSF pooled their outbound requests, 90.6 while
// provisioning recomputed the rig key's OPc for every device, 95.5 while
// the SBI decoded SUPIs and auth-context IDs as strings), so 62.7 is 10 %
// headroom; until the first such budget, the path was held only to half
// the seed's 559.
// TestBatchingAmortizes holds the unbatched point to it and skips it when
// race.Enabled.
const UnbatchedAllocBudget = 62.7

// AllocWindow runs fn and returns the heap allocations it made. The
// window is what makes the count repeatable: with the collector off no
// sync.Pool is emptied mid-run, and on one P the run is one interleaving
// of the caller and the resident ring dispatchers rather than whichever
// the scheduler picked, so goroutine hand-offs stop leaking into the
// figure. Both settings are restored on return; bytes is the cumulative
// size of the same allocations. A -race build gates no allocation count,
// so there the window only turns the collector off and leaves GOMAXPROCS
// alone: switching it stops the world under the race runtime, where it
// once died of a SIGSEGV in runtime.startTheWorld.
func AllocWindow(fn func() error) (mallocs, bytes uint64, err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if !race.Enabled {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}
