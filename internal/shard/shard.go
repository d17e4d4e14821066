// Package shard provides a lock-striped hash map for the NF state stores.
//
// The paper's testbed serves one registration at a time, so the seed
// implementation guarded every store with a single mutex. Under the
// concurrent mass-registration driver those coarse locks serialise the
// whole core; striping the key space across independently locked buckets
// lets unrelated UEs proceed in parallel while keeping per-key operations
// atomic.
package shard

import (
	"sync"
)

// stripeCount is the number of independent lock stripes. A modest power of
// two keeps the footprint small while making collisions between the
// handful of in-flight workers unlikely.
const stripeCount = 32

// Map is a hash map striped across stripeCount independently locked
// buckets. K is hashed by the function supplied at construction; all
// operations on keys in different stripes proceed without contention.
type Map[K comparable, V any] struct {
	hash    func(K) uint64
	stripes [stripeCount]stripe[K, V]
}

type stripe[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// New creates a striped map using hash to place keys. The size hint makes
// every stripe allocate its bucket array here, at construction, instead of
// on its first insert — NF state stores are built at deploy time, so this
// keeps first-contact bucket allocation off the registration hot path.
func New[K comparable, V any](hash func(K) uint64) *Map[K, V] {
	sm := &Map[K, V]{hash: hash}
	for i := range sm.stripes {
		sm.stripes[i].m = make(map[K]V, 9)
	}
	return sm
}

// NewUint64 creates a striped map keyed by uint64.
func NewUint64[V any]() *Map[uint64, V] { return New[uint64, V](HashUint64) }

// NewUint32 creates a striped map keyed by uint32.
func NewUint32[V any]() *Map[uint32, V] {
	return New[uint32, V](func(k uint32) uint64 { return HashUint64(uint64(k)) })
}

func (m *Map[K, V]) stripeFor(k K) *stripe[K, V] {
	return &m.stripes[m.hash(k)%stripeCount]
}

// Load returns the value stored for k.
func (m *Map[K, V]) Load(k K) (V, bool) {
	s := m.stripeFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

// Store sets the value for k.
func (m *Map[K, V]) Store(k K, v V) {
	s := m.stripeFor(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// Delete removes k.
func (m *Map[K, V]) Delete(k K) {
	s := m.stripeFor(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// LoadAndDelete removes k and returns the value that was stored, making a
// lookup-then-consume (such as redeeming a one-shot auth context) a single
// atomic step.
func (m *Map[K, V]) LoadAndDelete(k K) (V, bool) {
	s := m.stripeFor(k)
	s.mu.Lock()
	v, ok := s.m[k]
	if ok {
		delete(s.m, k)
	}
	s.mu.Unlock()
	return v, ok
}

// Update runs fn with the value stored for k (and whether it exists) while
// holding the stripe's write lock, so fn may mutate the value in place —
// the per-record critical section the UDR's SQN advance needs.
func (m *Map[K, V]) Update(k K, fn func(v V, ok bool)) {
	s := m.stripeFor(k)
	s.mu.Lock()
	v, ok := s.m[k]
	fn(v, ok)
	s.mu.Unlock()
}

// Len reports the total number of stored keys.
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false. Each stripe is
// read-locked only while it is being walked; entries stored or deleted
// concurrently in other stripes may or may not be visited.
func (m *Map[K, V]) Range(fn func(k K, v V) bool) {
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// HashUint64 mixes an integer key with the SplitMix64 finaliser so
// sequential IDs spread across stripes.
func HashUint64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}
