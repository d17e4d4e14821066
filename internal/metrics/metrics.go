// Package metrics collects latency samples and produces the box-plot style
// summaries (median, quartiles, whiskers, outlier fraction) the paper's
// figures report.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Recorder accumulates duration samples. It is safe for concurrent use.
// The zero value is ready to use and keeps every sample; NewRecorder
// preallocates capacity for hot paths that know their sample count up
// front, and NewWindow bounds what is kept to the most recent samples.
type Recorder struct {
	mu sync.Mutex
	// samples holds the kept samples. In a window that has filled, it is
	// a ring whose oldest sample sits at next.
	samples []time.Duration
	// window bounds len(samples) (0: unbounded); n counts every sample
	// added since the last Reset, kept or not.
	window, next, n int
	// sorted caches an ordered copy of samples for Summarize; nil means
	// stale. Kept separate from samples so callers that consume the raw
	// series (empirical resampling) still see insertion order.
	sorted []time.Duration
}

// NewRecorder returns a Recorder with capacity preallocated for n samples.
func NewRecorder(n int) *Recorder {
	if n < 0 {
		n = 0
	}
	return &Recorder{samples: make([]time.Duration, 0, n)}
}

// NewWindow returns a Recorder that keeps only its last k samples (k ≥ 1),
// so a recorder on a long-running server holds a fixed amount of memory
// however many requests it has seen. N still counts every sample; Samples
// and Summarize see the kept ones.
func NewWindow(k int) *Recorder {
	return &Recorder{window: max(k, 1)}
}

// Add records one sample.
func (r *Recorder) Add(d time.Duration) {
	r.mu.Lock()
	r.add(d)
	r.mu.Unlock()
}

// add records d with r.mu held. A window grows its storage by doubling up
// to k, never past it, then overwrites its oldest sample.
func (r *Recorder) add(d time.Duration) {
	r.n++
	r.sorted = nil
	switch {
	case r.window == 0:
		r.samples = append(r.samples, d)
	case len(r.samples) == r.window:
		r.samples[r.next] = d
		r.next = (r.next + 1) % r.window
	default:
		if len(r.samples) == cap(r.samples) {
			grown := make([]time.Duration, len(r.samples), min(max(2*cap(r.samples), 64), r.window))
			copy(grown, r.samples)
			r.samples = grown
		}
		r.samples = append(r.samples, d)
	}
}

// Merge adds all of other's kept samples, in insertion order, so
// per-worker recorders can be combined after a parallel run without
// sharing a lock during it.
func (r *Recorder) Merge(other *Recorder) {
	if other == nil || other == r {
		return
	}
	theirs := other.Samples()
	r.mu.Lock()
	for _, d := range theirs {
		r.add(d)
	}
	r.mu.Unlock()
}

// N reports the number of samples recorded since the last Reset,
// including any a window no longer keeps.
func (r *Recorder) N() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Samples returns a copy of the kept samples in insertion order.
func (r *Recorder) Samples() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]time.Duration, 0, len(r.samples))
	return append(append(out, r.samples[r.next:]...), r.samples[:r.next]...)
}

// Reset discards all samples and the count.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.samples = r.samples[:0]
	r.next, r.n = 0, 0
	r.sorted = nil
	r.mu.Unlock()
}

// Summary is a box-plot style description of a sample distribution.
type Summary struct {
	N      int
	Min    time.Duration
	Q1     time.Duration
	Median time.Duration
	Q3     time.Duration
	Max    time.Duration
	Mean   time.Duration
	P95    time.Duration
	P99    time.Duration
	StdDev time.Duration
	// OutlierFrac is the fraction of samples beyond the 1.5×IQR whiskers
	// (the paper reports <5% outliers across its measurements).
	OutlierFrac float64
}

// Summarize computes the summary of the kept samples. The sorted
// order is cached, so repeated summaries of an unchanged recorder sort
// only once.
func (r *Recorder) Summarize() Summary {
	r.mu.Lock()
	if r.sorted == nil {
		r.sorted = append([]time.Duration(nil), r.samples...)
		sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i] < r.sorted[j] })
	}
	s := r.sorted
	r.mu.Unlock()
	// s is never mutated after caching; summarizeSorted only reads it.
	return summarizeSorted(s)
}

// Summarize computes a box-plot summary of the given samples.
func Summarize(samples []time.Duration) Summary {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return summarizeSorted(s)
}

// summarizeSorted computes the summary of an already-sorted sample slice.
func summarizeSorted(s []time.Duration) Summary {
	if len(s) == 0 {
		return Summary{}
	}

	sum := Summary{
		N:      len(s),
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.50),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
		P95:    Quantile(s, 0.95),
		P99:    Quantile(s, 0.99),
	}

	var total float64
	for _, v := range s {
		total += float64(v)
	}
	mean := total / float64(len(s))
	sum.Mean = time.Duration(mean)

	var sq float64
	for _, v := range s {
		d := float64(v) - mean
		sq += d * d
	}
	sum.StdDev = time.Duration(math.Sqrt(sq / float64(len(s))))

	iqr := sum.Q3 - sum.Q1
	lo := sum.Q1 - time.Duration(1.5*float64(iqr))
	hi := sum.Q3 + time.Duration(1.5*float64(iqr))
	outliers := 0
	for _, v := range s {
		if v < lo || v > hi {
			outliers++
		}
	}
	sum.OutlierFrac = float64(outliers) / float64(len(s))
	return sum
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted samples using
// linear interpolation between order statistics.
func Quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// Ratio reports how many times larger a is than b by median, the figure of
// merit the paper's Table II uses for SGX-vs-container overhead.
func Ratio(a, b Summary) float64 {
	if b.Median == 0 {
		return math.Inf(1)
	}
	return float64(a.Median) / float64(b.Median)
}

// String renders the summary compactly for experiment output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%v q1=%v med=%v q3=%v max=%v mean=%v p95=%v p99=%v outliers=%.1f%%",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean, s.P95, s.P99, s.OutlierFrac*100)
}
