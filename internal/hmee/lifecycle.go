package hmee

import (
	"sync"

	"shield5g/internal/lockrank"
)

// Lifecycle is the one admission discipline every runtime serves under:
// a crossing is admitted while the runtime runs, exactly one admitted
// crossing ever keeps Warmup, and Shutdown stops admitting, then waits
// for every admitted crossing to be released before it tears down what
// those crossings run on (an enclave's threads, a process's key store).
// Start it once before the runtime serves.
type Lifecycle struct {
	mu       lockrank.Mutex
	idle     sync.Cond
	running  bool
	warm     bool
	inflight int
}

// Start marks the runtime up.
func (l *Lifecycle) Start() {
	l.mu.Rank = lockrank.Lifecycle
	l.idle.L = &l.mu
	l.running = true
}

// Admit checks a crossing in and resolves its phases against the warm
// state. Every admitted crossing must be released.
func (l *Lifecycle) Admit(ph Phases) (Phases, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.running {
		return 0, ErrStopped
	}
	if ph&Warmup != 0 {
		if l.warm {
			ph = ph.Warm()
		}
		l.warm = true
	}
	l.inflight++
	return ph, nil
}

// Release checks an admitted crossing out.
func (l *Lifecycle) Release() {
	l.mu.Lock()
	l.inflight--
	if l.inflight == 0 && !l.running {
		l.idle.Broadcast() // only Drain ever waits
	}
	l.mu.Unlock()
}

// Stop refuses every later crossing. It reports whether this call stopped
// the runtime, so a second Shutdown does nothing.
func (l *Lifecycle) Stop() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	was := l.running
	l.running = false
	return was
}

// Drain waits until every crossing admitted before Stop is released.
func (l *Lifecycle) Drain() {
	l.mu.Lock()
	for l.inflight > 0 {
		l.idle.Wait()
	}
	l.mu.Unlock()
}

// Running reports whether the runtime admits crossings.
func (l *Lifecycle) Running() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.running
}
