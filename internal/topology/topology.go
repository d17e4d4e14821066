// Package topology holds the data-plane side of the sharded-core control
// protocol: versioned routing snapshots, SUPI-affinity rendezvous
// (highest-random-weight) placement, and the Router that data planes
// consult on every routing decision.
//
// Every replica has a hash of its name; a key's score on a replica is
// mix(mix(fnv1a(key)) ^ replicaHash), and a SUPI is owned by the
// highest-scoring replica. Because a score depends on one key and one
// replica name only, removing a replica moves exactly the keys it owned and
// adding one moves only the keys it now owns.
//
// The package is deliberately free of any control-plane machinery — the
// snapshot *builder* lives in internal/nf/nrf/topo and pushes snapshots
// into Routers here. Data-plane packages (gnb, amf, ausf, udm, paka, sbi)
// may import this package but never the builder; internal/analysis's
// TestTopoBuilderImporters enforces that import direction, which is what
// keeps the NRF out of the request path: a Router answers every route from
// its last-known-good snapshot with no upcall, so registration traffic
// survives NRF unavailability indefinitely.
package topology

import (
	"fmt"
	"sync/atomic"
)

// maxReplicas bounds a snapshot's replica set, and with it the owner scan
// every route makes.
const maxReplicas = 64

// Replica names one routable replica of the vertical NF slice
// (AMF+AUSF+UDM+P-AKA modules sharing one shard index).
type Replica struct {
	// Index is the replica's position in the deploy-time replica array;
	// routing decisions return it so data planes can address per-replica
	// resources (AMF pointers, service names) without string lookups.
	Index int `json:"index"`
	// Name is the replica's stable identity. Placement hashes the name,
	// never the index, so adding or removing a replica moves only the
	// keys the rendezvous contract says may move.
	Name string `json:"name"`
}

// Snapshot is one full, versioned routing view. Snapshots are immutable
// once published: the builder constructs a fresh one per epoch and every
// Router either applies it whole or rejects it whole (ack/nack).
type Snapshot struct {
	// Epoch is strictly monotonic per builder. Routers nack any snapshot
	// whose epoch does not advance their current one, so a delayed or
	// replayed push can never roll a data plane back.
	Epoch uint64 `json:"epoch"`
	// Replicas is the routable replica set, in index order.
	Replicas []Replica `json:"replicas"`

	// hashes[i] is the placement hash of Replicas[i].Name; nil until Seal.
	hashes []uint64
}

// fnv1a is the 64-bit FNV-1a hash — deterministic across processes and
// architectures, which seeded map iteration or hash/maphash are not.
func fnv1a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix is splitmix64's finalizer. FNV-1a alone has weak high-bit avalanche
// for keys that differ only in trailing characters (sequential SUPIs,
// "shard-3" vs "shard-4"); the finalizer decorrelates them.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash is what a score combines: once over the key, once (at Seal) over
// each replica name.
func hash(s string) uint64 { return mix(fnv1a(s)) }

// Seal precomputes one placement hash per replica name. The builder calls
// it before publishing; Routers treat an unsealed snapshot as a protocol
// error.
func (s *Snapshot) Seal() {
	s.hashes = make([]uint64, len(s.Replicas))
	for i, r := range s.Replicas {
		s.hashes[i] = hash(r.Name)
	}
}

// sealed reports whether Seal ran over the current replica set.
func (s *Snapshot) sealed() bool { return len(s.hashes) == len(s.Replicas) }

// Owner returns the replica index owning key, the lower index winning a
// tie, or -1 on an empty snapshot.
func (s *Snapshot) Owner(key string) int {
	h := hash(key)
	best, bestScore := -1, uint64(0)
	for i, rh := range s.hashes {
		if score := mix(h ^ rh); best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// Router is a data plane's view of the routing topology. It holds exactly
// one snapshot — the last one it acked — in an atomic pointer, so Route
// is a lock-free read and never blocks on, or upcalls into, the control
// plane. Apply is the push target the builder drives.
type Router struct {
	snap atomic.Pointer[Snapshot]

	applied atomic.Uint64
	nacked  atomic.Uint64
}

// NewRouter returns an empty Router; it routes nothing until the first
// snapshot is applied.
func NewRouter() *Router { return &Router{} }

// Apply installs a pushed snapshot. It acks (nil) only when the snapshot
// is sealed and its epoch strictly advances the current one; otherwise it
// nacks with an error and keeps the last-known-good snapshot untouched.
func (r *Router) Apply(s *Snapshot) error {
	if s == nil || !s.sealed() {
		r.nacked.Add(1)
		return fmt.Errorf("topology: nack: unsealed snapshot")
	}
	if len(s.Replicas) > maxReplicas {
		r.nacked.Add(1)
		return fmt.Errorf("topology: nack: %d replicas exceed the %d a snapshot may hold", len(s.Replicas), maxReplicas)
	}
	for {
		cur := r.snap.Load()
		if cur != nil && s.Epoch <= cur.Epoch {
			r.nacked.Add(1)
			return fmt.Errorf("topology: nack: epoch %d does not advance %d", s.Epoch, cur.Epoch)
		}
		if r.snap.CompareAndSwap(cur, s) {
			r.applied.Add(1)
			return nil
		}
	}
}

// Snapshot returns the last-known-good snapshot (nil before any apply).
func (r *Router) Snapshot() *Snapshot { return r.snap.Load() }

// Epoch reports the applied epoch (0 before any apply).
func (r *Router) Epoch() uint64 {
	if s := r.snap.Load(); s != nil {
		return s.Epoch
	}
	return 0
}

// Stats reports how many pushes this router acked and nacked.
func (r *Router) Stats() (applied, nacked uint64) {
	return r.applied.Load(), r.nacked.Load()
}

// Route resolves supi to its owning replica index on the last-known-good
// snapshot. The tenant argument is ignored: every tenant routes over the
// whole replica set. ok is false only when no snapshot was ever applied —
// the one state in which a data plane must fall back to its static wiring.
func (r *Router) Route(_, supi string) (int, bool) {
	s := r.snap.Load()
	if s == nil || len(s.Replicas) == 0 {
		return 0, false
	}
	return s.Owner(supi), true
}
