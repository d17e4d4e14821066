// Package topo is the control-plane half of the sharded-core topology
// protocol: it owns the authoritative replica set and *pushes* versioned
// routing snapshots into data-plane topology.Routers. This is the NRF
// promoted from a passive registry to an authoritative control plane —
// but strictly off the request path: data planes never call into this
// package to route (internal/analysis's TestTopoBuilderImporters rejects
// the import), they only receive pushes, ack or nack them, and keep
// serving on their last-known-good snapshot when the NRF is unavailable.
package topo

import (
	"fmt"
	"sync"

	"shield5g/internal/topology"
)

// Subscriber is one data plane receiving topology pushes. topology.Router
// implements it; anything else (tests, future NFs) may too.
type Subscriber interface {
	Apply(*topology.Snapshot) error
}

// PushResult tallies one publish round.
type PushResult struct {
	Epoch  uint64
	Acked  int
	Nacked int
}

// Builder assembles and distributes routing snapshots. All methods are
// safe for concurrent use; publishes are single-filed so epochs observed
// by subscribers are strictly increasing.
type Builder struct {
	mu       sync.Mutex
	epoch    uint64
	replicas []topology.Replica
	subs     []Subscriber
	// last retains the most recently published snapshot so late
	// subscribers can be caught up without minting a new epoch.
	last *topology.Snapshot
}

// NewBuilder creates a builder with an empty replica set.
func NewBuilder() *Builder { return &Builder{} }

// SetReplicas replaces the authoritative replica set (index order). The
// change is staged; nothing reaches a data plane until Publish.
func (b *Builder) SetReplicas(replicas []topology.Replica) {
	b.mu.Lock()
	b.replicas = append([]topology.Replica(nil), replicas...)
	b.mu.Unlock()
}

// Subscribe registers a data plane for pushes and, when a snapshot has
// already been published, immediately catches it up with the current one.
// Subscription order is the deterministic push order of every subsequent
// Publish.
func (b *Builder) Subscribe(s Subscriber) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs = append(b.subs, s)
	if b.last != nil {
		if err := s.Apply(b.last); err != nil {
			return fmt.Errorf("topo: catch-up push: %w", err)
		}
	}
	return nil
}

// Publish seals the staged replica set into a fresh snapshot under the
// next epoch and pushes it to every subscriber in subscription order,
// collecting acks and nacks. A nack never aborts the round: the nacking
// data plane keeps its last-known-good snapshot and the remaining
// subscribers still receive the push — exactly the asynchronous,
// individually-acked distribution of the milestone-3 pattern, collapsed
// to synchronous calls by the in-process simulation.
func (b *Builder) Publish() PushResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.epoch++
	snap := &topology.Snapshot{
		Epoch:    b.epoch,
		Replicas: append([]topology.Replica(nil), b.replicas...),
	}
	snap.Seal()
	b.last = snap
	res := PushResult{Epoch: snap.Epoch}
	for _, s := range b.subs {
		if err := s.Apply(snap); err != nil {
			res.Nacked++
			continue
		}
		res.Acked++
	}
	return res
}
