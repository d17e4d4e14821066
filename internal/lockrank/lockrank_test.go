package lockrank

import (
	"bytes"
	"os/exec"
	"sync"
	"testing"

	"shield5g/internal/race"
)

// panics runs f and reports whether it panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestDeclaredOrderDoesNotPanic takes every nesting the tree has, in the
// declared order, with a leaf under the inner mutex.
func TestDeclaredOrderDoesNotPanic(t *testing.T) {
	resil, client, breaker := Mutex{Rank: SliceResilience}, Mutex{Rank: ResilientClient}, Mutex{Rank: Breaker}
	attest, restart, session := Mutex{Rank: SliceAttestation}, Mutex{Rank: ModuleRestart}, Mutex{Rank: ModuleSession}
	rt, sess := RWMutex{Rank: ModuleRuntime}, Mutex{Rank: ModuleSessions}
	instance, dispatcher, ring := Mutex{Rank: Lifecycle}, Mutex{Rank: RingDispatcher}, Mutex{Rank: Ring}
	leaf := Mutex{}
	nest := func(outer, inner sync.Locker) {
		outer.Lock()
		inner.Lock()
		leaf.Lock()
		leaf.Unlock()
		inner.Unlock()
		outer.Unlock()
	}
	if panics(func() {
		nest(&resil, &client)
		nest(&client, &breaker)
		nest(&restart, &rt)
		nest(&restart, &sess)
		nest(&attest, &rt)
		nest(&session, &instance)
		nest(&session, &ring)
		nest(&dispatcher, &ring)
	}) {
		t.Fatal("a nesting in the declared order panicked")
	}
}

// TestInversionPanics is the opposite nesting of paka.Module's restart
// and runtime locks: ProvisionSubscriber fencing restarts out while it
// holds the runtime's read lock, which deadlocks against a Restart that
// holds restartMu and waits for rtMu. A run need not deadlock for the
// check to see it.
func TestInversionPanics(t *testing.T) {
	restart, rt := Mutex{Rank: ModuleRestart}, RWMutex{Rank: ModuleRuntime}
	rt.RLock()
	defer rt.RUnlock()
	if got := panics(func() { restart.Lock(); restart.Unlock() }); got != race.Enabled {
		t.Errorf("restartMu taken under rtMu: panicked %v, want %v", got, race.Enabled)
	}
}

// TestRecursiveLockPanics re-acquires deploy.Slice's resilMu on the
// goroutine that holds it, a certain self-deadlock; the check panics
// before the goroutine blocks. Unchecked, the second Lock would deadlock,
// so a build without -race runs this test in a -race build of the package.
func TestRecursiveLockPanics(t *testing.T) {
	if !race.Enabled {
		out, err := exec.Command("go", "test", "-race", "-count=1", "-timeout=30s", "-v", "-run", "^TestRecursiveLockPanics$", ".").CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestRecursiveLockPanics")) {
			t.Fatalf("the -race build's TestRecursiveLockPanics did not pass (%v):\n%s", err, out)
		}
		return
	}
	resil := Mutex{Rank: SliceResilience}
	resil.Lock()
	defer resil.Unlock()
	if !panics(func() { resil.Lock() }) {
		t.Error("a second Lock of a held mutex did not panic")
	}
}

// TestNothingUnderALeaf takes a ranked mutex under an unranked one.
func TestNothingUnderALeaf(t *testing.T) {
	leaf, ring := Mutex{}, Mutex{Rank: Ring}
	leaf.Lock()
	defer leaf.Unlock()
	if got := panics(func() { ring.Lock(); ring.Unlock() }); got != race.Enabled {
		t.Errorf("ranked mutex taken under a leaf: panicked %v, want %v", got, race.Enabled)
	}
}

// TestUnlockOnAnotherGoroutine hands a held mutex to another goroutine to
// unlock, as sync allows; the first goroutine then holds nothing.
func TestUnlockOnAnotherGoroutine(t *testing.T) {
	restart, rt := Mutex{Rank: ModuleRestart}, RWMutex{Rank: ModuleRuntime}
	rt.Lock()
	done := make(chan struct{})
	go func() { rt.Unlock(); close(done) }()
	<-done
	if panics(func() { restart.Lock(); restart.Unlock() }) {
		t.Error("a mutex unlocked on another goroutine still counts as held")
	}
}

// TestCheckAllocatesNothing holds the bookkeeping to zero allocations: the
// allocation budgets of the packages that rank their mutexes run under
// -race too.
func TestCheckAllocatesNothing(t *testing.T) {
	restart, rt := Mutex{Rank: ModuleRestart}, RWMutex{Rank: ModuleRuntime}
	if n := testing.AllocsPerRun(100, func() {
		restart.Lock()
		rt.RLock()
		rt.RUnlock()
		restart.Unlock()
	}); n != 0 {
		t.Errorf("a ranked Lock/RLock pair allocates %.1f times, want 0", n)
	}
}
