// Package lockrank declares the one order in which the tree's nested
// mutexes may be taken, after the Go runtime's static lock ranking
// (runtime/lockrank.go). A Mutex or RWMutex is the sync type plus its
// declared Rank. In -race builds every acquisition is checked against the
// ranked mutexes its goroutine already holds and panics on an inversion
// or a recursive acquisition, whether or not the run would have
// deadlocked; in other builds the methods are the bare sync calls.
//
// Only the mutexes some path nests carry a rank. A nesting under a plain
// sync mutex is not checked.
package lockrank

import "sync"

// A Rank places a mutex in the global order: a goroutine may take a ranked
// mutex only while every ranked mutex it holds has a strictly lower rank.
// The zero Rank is a leaf: nothing may be taken while a goroutine holds
// one, and it may be taken under any ranked mutex.
type Rank uint8

// The ranks, lowest first. Each comment names the mutex and the nestings
// that order it (DESIGN.md §8).
const (
	Leaf Rank = iota
	// SliceResilience is deploy.Slice.resilMu: ResilienceStats reads
	// every client's counters under it.
	SliceResilience
	// ResilientClient is sbi.ResilientClient.mu: Stats reads every
	// breaker under it.
	ResilientClient
	// Breaker is sbi.Breaker.mu.
	Breaker
	// SliceAttestation is deploy.Slice.attestMu: verifyAttestation reads
	// a module's evidence, and with it the module's runtime, under it.
	SliceAttestation
	// ModuleRestart is paka.Module.restartMu: Restart swaps the runtime
	// and drops the keep-alive sessions under it.
	ModuleRestart
	// ModuleSession is paka.moduleSession.mu: a keep-alive session
	// crosses into the enclave, through the instance and the ring, under it.
	ModuleSession
	// ModuleRuntime is paka.Module.rtMu.
	ModuleRuntime
	// ModuleSessions is paka.Module.sessMu.
	ModuleSessions
	// Lifecycle is hmee.Lifecycle.mu, every runtime's admission state.
	Lifecycle
	// RingDispatcher is sgx.Ring.dispatcher: Submit reads whether the ring
	// closed and runs the job on the dispatcher's thread under it.
	RingDispatcher
	// Ring is sgx.Ring.mu.
	Ring
)

// Mutex is a sync.Mutex with a declared rank.
type Mutex struct {
	sync.Mutex
	Rank Rank
}

// RWMutex is a sync.RWMutex with a declared rank; a read lock is ranked
// like a write lock.
type RWMutex struct {
	sync.RWMutex
	Rank Rank
}
