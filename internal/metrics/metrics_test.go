package metrics

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	var r Recorder
	s := r.Summarize()
	if s.N != 0 || s.Median != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]time.Duration{5 * time.Millisecond})
	if s.N != 1 || s.Min != 5*time.Millisecond || s.Max != 5*time.Millisecond ||
		s.Median != 5*time.Millisecond || s.Mean != 5*time.Millisecond {
		t.Fatalf("single summary = %+v", s)
	}
	if s.StdDev != 0 {
		t.Fatalf("StdDev = %v, want 0", s.StdDev)
	}
}

func TestSummarizeKnownDistribution(t *testing.T) {
	// 1..9 ms: median 5, q1 3, q3 7, mean 5.
	var samples []time.Duration
	for i := 1; i <= 9; i++ {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	s := Summarize(samples)
	if s.Median != 5*time.Millisecond {
		t.Errorf("median = %v", s.Median)
	}
	if s.Q1 != 3*time.Millisecond {
		t.Errorf("q1 = %v", s.Q1)
	}
	if s.Q3 != 7*time.Millisecond {
		t.Errorf("q3 = %v", s.Q3)
	}
	if s.Mean != 5*time.Millisecond {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Min != time.Millisecond || s.Max != 9*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.OutlierFrac != 0 {
		t.Errorf("outliers = %v, want 0", s.OutlierFrac)
	}
}

func TestSummarizeDetectsOutliers(t *testing.T) {
	samples := make([]time.Duration, 0, 101)
	for i := 0; i < 100; i++ {
		samples = append(samples, time.Duration(100+i%3)*time.Microsecond)
	}
	samples = append(samples, 10*time.Millisecond)
	s := Summarize(samples)
	if s.OutlierFrac <= 0 || s.OutlierFrac > 0.05 {
		t.Fatalf("OutlierFrac = %v, want (0, 0.05]", s.OutlierFrac)
	}
}

func TestQuantileBounds(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile nonzero")
	}
	if Quantile(sorted, -1) != 1 {
		t.Fatal("q<0 not clamped to min")
	}
	if Quantile(sorted, 2) != 4 {
		t.Fatal("q>1 not clamped to max")
	}
	// pos = 0.5*(4-1) = 1.5 → interpolate between 2ns and 3ns → 2.5ns,
	// truncated to 2ns by integer duration arithmetic.
	if got := Quantile(sorted, 0.5); got != 2 {
		t.Fatalf("median = %v, want 2ns", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.N() != 800 {
		t.Fatalf("N = %d, want 800", r.N())
	}
}

func TestRecorderReset(t *testing.T) {
	var r Recorder
	r.Add(time.Second)
	r.Reset()
	if r.N() != 0 {
		t.Fatalf("N after reset = %d", r.N())
	}
}

func TestSamplesCopy(t *testing.T) {
	var r Recorder
	r.Add(time.Second)
	s := r.Samples()
	s[0] = 0
	if r.Samples()[0] != time.Second {
		t.Fatal("Samples returned aliased storage")
	}
}

func TestRatio(t *testing.T) {
	a := Summarize([]time.Duration{10 * time.Microsecond})
	b := Summarize([]time.Duration{4 * time.Microsecond})
	if got := Ratio(a, b); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("Ratio = %v, want 2.5", got)
	}
	if !math.IsInf(Ratio(a, Summary{}), 1) {
		t.Fatal("Ratio with zero denominator not +Inf")
	}
}

// Property: summary invariants hold for arbitrary sample sets.
func TestSummaryInvariants(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v)
		}
		s := Summarize(samples)
		return s.N == len(samples) &&
			s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.P95 <= s.P99 && s.P99 <= s.Max &&
			s.OutlierFrac >= 0 && s.OutlierFrac <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]time.Duration{time.Millisecond, 2 * time.Millisecond})
	if got := s.String(); got == "" {
		t.Fatal("empty String")
	}
}

func BenchmarkSummarize(b *testing.B) {
	samples := make([]time.Duration, 500)
	for i := range samples {
		samples[i] = time.Duration(i*i%977) * time.Microsecond
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Summarize(samples)
	}
}

func TestRecorderMerge(t *testing.T) {
	a := NewRecorder(4)
	b := NewRecorder(4)
	for i := 1; i <= 3; i++ {
		a.Add(time.Duration(i) * time.Millisecond)
		b.Add(time.Duration(10+i) * time.Millisecond)
	}
	a.Merge(b)
	if a.N() != 6 {
		t.Fatalf("N = %d, want 6", a.N())
	}
	if b.N() != 3 {
		t.Fatalf("merge mutated source: N = %d", b.N())
	}
	s := a.Summarize()
	if s.Min != time.Millisecond || s.Max != 13*time.Millisecond {
		t.Fatalf("merged summary = %+v", s)
	}
	// Merge must preserve insertion order (scale experiments resample
	// Samples() positionally).
	want := []time.Duration{1, 2, 3, 11, 12, 13}
	for i, d := range a.Samples() {
		if d != want[i]*time.Millisecond {
			t.Fatalf("sample %d = %v, want %v", i, d, want[i]*time.Millisecond)
		}
	}
}

func TestRecorderSummaryCacheInvalidation(t *testing.T) {
	r := NewRecorder(8)
	r.Add(2 * time.Millisecond)
	if s := r.Summarize(); s.Median != 2*time.Millisecond {
		t.Fatalf("median = %v", s.Median)
	}
	// Adding after a summary must invalidate the cached sort.
	r.Add(4 * time.Millisecond)
	if s := r.Summarize(); s.Max != 4*time.Millisecond || s.N != 2 {
		t.Fatalf("post-add summary = %+v", s)
	}
	r.Reset()
	if s := r.Summarize(); s.N != 0 {
		t.Fatalf("post-reset summary = %+v", s)
	}
}

func TestRecorderConcurrentAddMerge(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := NewRecorder(32)
			for i := 0; i < 32; i++ {
				local.Add(time.Duration(w*32+i) * time.Microsecond)
			}
			r.Merge(local)
		}(w)
	}
	wg.Wait()
	if r.N() != 256 {
		t.Fatalf("N = %d, want 256", r.N())
	}
	if s := r.Summarize(); s.N != 256 || s.Max != 255*time.Microsecond {
		t.Fatalf("summary = %+v", s)
	}
}

func TestWindowKeepsLastKInOrder(t *testing.T) {
	const k = 5
	w := NewWindow(k)
	for i := 1; i <= 12; i++ { // wraps the ring twice and a bit
		w.Add(time.Duration(i))
		want := make([]time.Duration, 0, k)
		for j := max(1, i-k+1); j <= i; j++ {
			want = append(want, time.Duration(j))
		}
		if got := w.Samples(); !slices.Equal(got, want) {
			t.Fatalf("after %d adds Samples = %v, want %v", i, got, want)
		}
		if w.N() != i {
			t.Fatalf("after %d adds N = %d", i, w.N())
		}
	}
	// The summary covers the kept samples 8..12 only.
	if s := w.Summarize(); s.N != k || s.Min != 8 || s.Median != 10 || s.Max != 12 {
		t.Fatalf("summary = %+v, want n=5 over 8..12", s)
	}
	w.Reset()
	if w.N() != 0 || len(w.Samples()) != 0 || w.Summarize().N != 0 {
		t.Fatalf("after Reset: N %d, %d samples", w.N(), len(w.Samples()))
	}
	// A reset window fills from the start again.
	w.Add(7)
	if got := w.Samples(); !slices.Equal(got, []time.Duration{7}) || w.N() != 1 {
		t.Fatalf("after Reset and one add: %v, N %d", got, w.N())
	}
}

func TestWindowStorageStaysBounded(t *testing.T) {
	w := NewWindow(100)
	for i := 0; i < 1000; i++ {
		w.Add(time.Duration(i))
	}
	if c := cap(w.samples); c != 100 {
		t.Fatalf("window of 100 holds storage for %d samples", c)
	}
}

func TestWindowConcurrentAdd(t *testing.T) {
	const k, workers, each = 64, 8, 100
	w := NewWindow(k)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				w.Add(time.Duration(i))
				if i%10 == 0 {
					w.Summarize()
					w.Samples()
				}
			}
		}()
	}
	wg.Wait()
	if w.N() != workers*each {
		t.Fatalf("N = %d, want %d", w.N(), workers*each)
	}
	if got := len(w.Samples()); got != k {
		t.Fatalf("%d samples kept, want %d", got, k)
	}
}
