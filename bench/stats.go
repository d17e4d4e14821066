package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of values by linear
// interpolation between order statistics, the rule metrics.Quantile uses.
// It sorts a copy; an empty series yields 0.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// chunkSize is the number of registrations whose SUT time one chunk
// averages, and quietQuantile the quantile of the chunk means reported.
const (
	chunkSize     = 32
	quietQuantile = 0.05
)

// chunkMeans averages a per-registration series over consecutive chunks of
// chunkSize; a trailing partial chunk is dropped.
func chunkMeans(series []float64) []float64 {
	out := make([]float64, 0, len(series)/chunkSize)
	for i := 0; i+chunkSize <= len(series); i += chunkSize {
		out = append(out, mean(series[i:i+chunkSize]))
	}
	return out
}

// quiet is the "quiet host" estimate of a per-registration cost: a low
// quantile over the means of short chunks. On a shared host a neighbour
// disturbs the benchmark in bursts of milliseconds: the per-registration
// median and the means of long chunks move by tens of percent between
// back-to-back runs, while short chunks that fell between two bursts
// repeat within a few percent. Chunks must be long enough to hold the
// workload's steady mix of operations (a re-registration refills the AV
// pool once in eight; 32 consecutive devices hold four of each fill level)
// and the quantile high enough not to reward a few lucky chunks (ring
// hand-offs that hit a spinning dispatcher). A series shorter than one
// chunk falls back to its mean.
func quiet(series []float64) float64 {
	chunks := chunkMeans(series)
	if len(chunks) == 0 {
		return mean(series)
	}
	return percentile(chunks, quietQuantile)
}
