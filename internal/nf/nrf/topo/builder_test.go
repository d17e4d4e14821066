package topo

import (
	"testing"

	"shield5g/internal/topology"
)

func replicas(names ...string) []topology.Replica {
	out := make([]topology.Replica, len(names))
	for i, n := range names {
		out[i] = topology.Replica{Index: i, Name: n}
	}
	return out
}

// lastApplied is a Router that remembers the last snapshot it acked.
type lastApplied struct {
	*topology.Router
	snap *topology.Snapshot
}

func (l *lastApplied) Apply(s *topology.Snapshot) error {
	err := l.Router.Apply(s)
	if err == nil {
		l.snap = s
	}
	return err
}

func TestPublishPushesMonotonicEpochs(t *testing.T) {
	b := NewBuilder()
	b.SetReplicas(replicas("shard-0", "shard-1"))
	r1, r2 := &lastApplied{Router: topology.NewRouter()}, topology.NewRouter()
	if err := b.Subscribe(r1); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(r2); err != nil {
		t.Fatal(err)
	}
	res := b.Publish()
	if res.Epoch != 1 || res.Acked != 2 || res.Nacked != 0 {
		t.Fatalf("first publish = %+v, want epoch 1, 2 acks", res)
	}
	b.SetReplicas(replicas("shard-0", "shard-1", "shard-2"))
	res = b.Publish()
	if res.Epoch != 2 || res.Acked != 2 {
		t.Fatalf("second publish = %+v, want epoch 2, 2 acks", res)
	}
	if r1.Epoch() != 2 || r2.Epoch() != 2 {
		t.Fatalf("router epochs = %d, %d, want 2, 2", r1.Epoch(), r2.Epoch())
	}
	if got := len(r1.snap.Replicas); got != 3 {
		t.Fatalf("router sees %d replicas, want 3", got)
	}
}

// A subscriber that already advanced past the push nacks, and the round
// still delivers to everyone else.
func TestNackDoesNotAbortRound(t *testing.T) {
	b := NewBuilder()
	b.SetReplicas(replicas("shard-0"))
	b.Publish()
	ahead, behind := topology.NewRouter(), topology.NewRouter()
	fast := &topology.Snapshot{Epoch: 99, Replicas: replicas("other")}
	fast.Seal()
	if err := ahead.Apply(fast); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(ahead); err == nil {
		t.Fatal("catch-up to an already-ahead router should surface the nack")
	}
	if err := b.Subscribe(behind); err != nil {
		t.Fatal(err)
	}
	res := b.Publish()
	if res.Acked != 1 || res.Nacked != 1 {
		t.Fatalf("publish = %+v, want 1 ack + 1 nack", res)
	}
	if behind.Epoch() != 2 {
		t.Fatalf("healthy subscriber missed the push: epoch %d", behind.Epoch())
	}
	if ahead.Epoch() != 99 {
		t.Fatalf("nacking subscriber lost its LKG: epoch %d", ahead.Epoch())
	}
}

func TestLateSubscriberCatchesUp(t *testing.T) {
	b := NewBuilder()
	b.SetReplicas(replicas("shard-0", "shard-1"))
	b.Publish()
	late := topology.NewRouter()
	if err := b.Subscribe(late); err != nil {
		t.Fatal(err)
	}
	if late.Epoch() != 1 {
		t.Fatalf("late subscriber epoch = %d, want 1 (caught up)", late.Epoch())
	}
}
