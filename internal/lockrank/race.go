//go:build race

package lockrank

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"
)

func (m *Mutex) Lock()      { acquire(unsafe.Pointer(m), m.Rank); m.Mutex.Lock() }
func (m *Mutex) Unlock()    { release(unsafe.Pointer(m)); m.Mutex.Unlock() }
func (m *RWMutex) Lock()    { acquire(unsafe.Pointer(m), m.Rank); m.RWMutex.Lock() }
func (m *RWMutex) Unlock()  { release(unsafe.Pointer(m)); m.RWMutex.Unlock() }
func (m *RWMutex) RLock()   { acquire(unsafe.Pointer(m), m.Rank); m.RWMutex.RLock() }
func (m *RWMutex) RUnlock() { release(unsafe.Pointer(m)); m.RWMutex.RUnlock() }

// A hold is one ranked mutex one goroutine holds or waits for.
type hold struct {
	g    uint64
	lock unsafe.Pointer
	rank Rank
}

// held lists every hold of every goroutine in a fixed array, and goid
// reads into a fixed buffer under the same lock, so that the bookkeeping
// allocates nothing: the allocation tests run under -race too.
var held struct {
	sync.Mutex
	n     int
	holds [1 << 14]hold
	stack [32]byte
}

// acquire checks lock against what the calling goroutine holds and records
// it before the caller blocks on it, so that a recursive acquisition
// panics instead of deadlocking.
func acquire(lock unsafe.Pointer, rank Rank) {
	held.Lock()
	g := goid()
	var bad hold
	for _, h := range held.holds[:held.n] {
		if h.g == g && (h.lock == lock || h.rank == Leaf || rank != Leaf && h.rank >= rank) {
			bad = h
			break
		}
	}
	full := held.n == len(held.holds)
	if bad.lock == nil && !full {
		held.holds[held.n] = hold{g, lock, rank}
		held.n++
	}
	held.Unlock()
	switch {
	case bad.lock == lock:
		panic(fmt.Sprintf("lockrank: recursive acquisition of a rank %d mutex", rank))
	case bad.lock != nil:
		panic(fmt.Sprintf("lockrank: rank %d mutex acquired while holding rank %d", rank, bad.rank))
	case full:
		panic("lockrank: too many ranked mutexes held at once")
	}
}

// release forgets the calling goroutine's hold of lock, or another
// goroutine's: a sync mutex may be unlocked by a goroutine that did not
// lock it. Only a read lock two goroutines hold at once needs the caller's
// id to tell the holds apart; reading it is most of the check's cost.
func release(lock unsafe.Pointer) {
	held.Lock()
	at, shared := -1, false
	for i, h := range held.holds[:held.n] {
		if h.lock == lock {
			shared = at >= 0
			at = i
		}
	}
	if shared {
		g := goid()
		for i, h := range held.holds[:held.n] {
			if h.lock == lock && h.g == g {
				at = i
			}
		}
	}
	if at >= 0 {
		held.n--
		held.holds[at] = held.holds[held.n]
	}
	held.Unlock()
}

// goid reads the calling goroutine's id from the first line of its stack
// trace, "goroutine 18 [running]:". The caller holds held.
func goid() uint64 {
	n := runtime.Stack(held.stack[:], false)
	var id uint64
	for _, c := range held.stack[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
