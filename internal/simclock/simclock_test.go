package simclock

import (
	"context"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDurationConversion(t *testing.T) {
	tests := []struct {
		name   string
		cycles Cycles
		freq   uint64
		want   time.Duration
	}{
		{name: "one second at 2.4GHz", cycles: 2_400_000_000, freq: 2_400_000_000, want: time.Second},
		{name: "one microsecond", cycles: 2_400, freq: 2_400_000_000, want: time.Microsecond},
		{name: "zero cycles", cycles: 0, freq: 2_400_000_000, want: 0},
		{name: "default frequency", cycles: 2_400, freq: 0, want: time.Microsecond},
		{name: "one cycle at 1Hz", cycles: 1, freq: 1, want: time.Second},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Duration(tt.cycles, tt.freq); got != tt.want {
				t.Errorf("Duration(%d, %d) = %v, want %v", tt.cycles, tt.freq, got, tt.want)
			}
		})
	}
}

func TestDurationLargeNoOverflow(t *testing.T) {
	// 1000 simulated seconds must not overflow the int64 nanosecond range.
	n := Cycles(2_400_000_000) * 1000
	if got := Duration(n, 2_400_000_000); got != 1000*time.Second {
		t.Fatalf("Duration = %v, want %v", got, 1000*time.Second)
	}
}

func TestFromDurationRoundTrip(t *testing.T) {
	f := func(micros uint32) bool {
		d := time.Duration(micros) * time.Microsecond
		n := FromDuration(d, DefaultFrequencyHz)
		back := Duration(n, DefaultFrequencyHz)
		diff := back - d
		if diff < 0 {
			diff = -diff
		}
		return diff <= time.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockAdvance(t *testing.T) {
	c := New(2_400_000_000)
	c.Advance(2_400)
	c.Advance(2_400)
	if got := c.Elapsed(); got != 4_800 {
		t.Fatalf("Elapsed = %d, want 4800", got)
	}
	if got := c.Now(); got != 2*time.Microsecond {
		t.Fatalf("Now = %v, want 2µs", got)
	}
}

func TestClockDefaultFrequency(t *testing.T) {
	c := New(0)
	if got := c.FrequencyHz(); got != DefaultFrequencyHz {
		t.Fatalf("FrequencyHz = %d, want %d", got, DefaultFrequencyHz)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := New(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Elapsed(); got != 8000 {
		t.Fatalf("Elapsed = %d, want 8000", got)
	}
}

// Reset zeroes the account and returns the previous total.
func (a *Account) Reset() Cycles { return Cycles(a.cycles.Swap(0)) }

func TestAccountChargeAndReset(t *testing.T) {
	var a Account
	a.Charge(100)
	a.Charge(50)
	if got := a.Total(); got != 150 {
		t.Fatalf("Total = %d, want 150", got)
	}
	if got := a.Reset(); got != 150 {
		t.Fatalf("Reset = %d, want 150", got)
	}
	if got := a.Total(); got != 0 {
		t.Fatalf("Total after reset = %d, want 0", got)
	}
}

func TestAccountContext(t *testing.T) {
	var a Account
	ctx := WithAccount(context.Background(), &a)
	AccountFrom(ctx).Charge(42)
	if got := a.Total(); got != 42 {
		t.Fatalf("Total = %d, want 42", got)
	}
}

func TestAccountFromMissing(t *testing.T) {
	// Charging a missing account must be safe and not panic.
	AccountFrom(context.Background()).Charge(1)
}

func TestJitterDeterminism(t *testing.T) {
	a, b := NewJitter(7), NewJitter(7)
	for i := 0; i < 100; i++ {
		if x, y := a.Scale(1000, 0.2), b.Scale(1000, 0.2); x != y {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, x, y)
		}
	}
}

func TestJitterScaleBounds(t *testing.T) {
	j := NewJitter(1)
	for i := 0; i < 1000; i++ {
		got := j.Scale(1000, 0.1)
		if got < 900 || got > 1100 {
			t.Fatalf("Scale out of bounds: %d", got)
		}
	}
}

func TestJitterScaleZeroFrac(t *testing.T) {
	j := NewJitter(1)
	if got := j.Scale(1234, 0); got != 1234 {
		t.Fatalf("Scale(_, 0) = %d, want 1234", got)
	}
}

func TestJitterLogNormalMedian(t *testing.T) {
	j := NewJitter(3)
	const n = 20000
	below := 0
	for i := 0; i < n; i++ {
		if j.LogNormal(1000, 0.3) < 1000 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("median fraction below = %.3f, want ~0.5", frac)
	}
}

func TestJitterLogNormalZeroSigma(t *testing.T) {
	j := NewJitter(3)
	if got := j.LogNormal(555, 0); got != 555 {
		t.Fatalf("LogNormal(_, 0) = %d, want 555", got)
	}
}

func TestJitterPoissonMean(t *testing.T) {
	j := NewJitter(9)
	for _, lambda := range []float64{0.5, 4, 200} {
		const n = 5000
		sum := 0
		for i := 0; i < n; i++ {
			sum += j.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > 0.15*lambda+0.1 {
			t.Fatalf("Poisson(%v) mean = %.3f", lambda, mean)
		}
	}
}

func TestJitterPoissonZero(t *testing.T) {
	j := NewJitter(9)
	if got := j.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := j.Poisson(-1); got != 0 {
		t.Fatalf("Poisson(-1) = %d, want 0", got)
	}
}

func TestJitterConcurrent(t *testing.T) {
	j := NewJitter(11)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				j.Scale(100, 0.5)
				j.Poisson(2)
				j.LogNormal(100, 0.2)
				j.Uint64n(10)
				j.Float64()
			}
		}()
	}
	wg.Wait()
}

func TestJitterStreamDeterministic(t *testing.T) {
	// Same root seed, same stream index: identical draw sequences.
	a := NewJitter(42).Stream(3)
	b := NewJitter(42).Stream(3)
	for i := 0; i < 64; i++ {
		if x, y := a.Uint64n(1<<40), b.Uint64n(1<<40); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
}

func TestJitterStreamIndependent(t *testing.T) {
	// Different stream indices diverge, and none collides with the root
	// source's own sequence.
	root := NewJitter(42)
	s1 := NewJitter(42).Stream(1)
	s2 := NewJitter(42).Stream(2)
	same12, sameRoot := 0, 0
	for i := 0; i < 64; i++ {
		r, x, y := root.Uint64n(1<<40), s1.Uint64n(1<<40), s2.Uint64n(1<<40)
		if x == y {
			same12++
		}
		if r == x {
			sameRoot++
		}
	}
	if same12 > 2 || sameRoot > 2 {
		t.Fatalf("streams not independent: same12=%d sameRoot=%d", same12, sameRoot)
	}
}

func TestJitterFromFallback(t *testing.T) {
	fallback := NewJitter(7)
	ctx := context.Background()
	if got := JitterFrom(ctx, fallback); got != fallback {
		t.Fatal("bare context did not fall back")
	}
	stream := fallback.Stream(1)
	ctx = WithJitter(ctx, stream)
	if got := JitterFrom(ctx, fallback); got != stream {
		t.Fatal("context jitter not returned")
	}
	if got := JitterFrom(context.Background(), nil); got != nil {
		t.Fatal("nil fallback not honoured")
	}
}
