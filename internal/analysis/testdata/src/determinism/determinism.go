// Package determinism is a shieldlint fixture: every flagged line
// carries a // want comment the harness matches against the analyzer's
// output.
package determinism

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want "time.Now reads the wall clock"
}

func sleepy() {
	time.Sleep(time.Millisecond) // want "time.Sleep reads the wall clock"
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since reads the wall clock"
}

func ticker() *time.Ticker {
	return time.NewTicker(time.Second) // want "time.NewTicker reads the wall clock"
}

func globalRand() int {
	return rand.Int() // want "math/rand.Int draws from the global math/rand source"
}

func globalRandV2() int {
	return randv2.IntN(10) // want "math/rand/v2.IntN draws from the global math/rand source"
}

// Seeded constructors and generator methods never touch shared state.
func seededOK() int {
	r := rand.New(rand.NewSource(42))
	return r.Int()
}

// Pure conversions and Duration arithmetic stay allowed.
func arithmeticOK(d time.Duration) time.Duration {
	return d.Round(time.Millisecond) + 5*time.Second
}

func annotated() time.Time {
	//shieldlint:wallclock fixture exercises the escape hatch
	return time.Now() // want:suppressed "time.Now reads the wall clock"
}

// A token bucket refilled off the wall clock replays differently on
// every run: refill instants must come from the virtual clock (the
// simclock arrival axis in the admission controller), never time.Now.
type wallBucket struct {
	tokens float64
	last   time.Time
}

func (b *wallBucket) refill(rate float64) {
	now := time.Now() // want "time.Now reads the wall clock"
	b.tokens += now.Sub(b.last).Seconds() * rate
	b.last = now
}

func (b *wallBucket) admit(rate float64) bool {
	b.refill(rate)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

type clockHolder struct {
	now func() time.Time
}

// Value uses (not just calls) are flagged too: storing time.Now as a
// default clock smuggles the wall clock into simulated paths.
func holder() clockHolder {
	return clockHolder{now: time.Now} // want "time.Now reads the wall clock"
}
