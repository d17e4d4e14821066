package experiments

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"shield5g/internal/paka"
	"shield5g/internal/simclock"
)

// ScalePoint is one (replicas, offered load) measurement of the
// horizontal-scaling experiment.
type ScalePoint struct {
	Replicas    int
	OfferedLoad float64 // arrival rate as a fraction of aggregate capacity
	Utilization float64
	MeanSojourn time.Duration
	P95Sojourn  time.Duration
	Throughput  float64 // served requests per second
}

// ScaleResult is the scaling sweep.
type ScaleResult struct {
	series
	// ServiceMedian is the measured single-replica service time the
	// simulation draws from.
	ServiceMedian time.Duration
	Points        []ScalePoint
}

// Scale demonstrates the paper's §V-B7 claim that the microservice design
// supports horizontal scaling: it measures the SGX eUDM module's
// service-time distribution, then drives an event-driven queueing
// simulation (Poisson arrivals, c FIFO replicas, empirically sampled
// service times) across replica counts and offered loads.
func Scale(ctx context.Context, cfg Config) (*ScaleResult, error) {
	run, err := measureModule(ctx, paka.EUDM, cfg.Seed+4242, rigOptions{isolation: paka.SGX}, max(cfg.iterations(), 100))
	if err != nil {
		return nil, err
	}
	samples := run.service.Samples()
	if len(samples) == 0 {
		return nil, fmt.Errorf("experiments: no service-time samples collected")
	}

	jitter := simclock.NewJitter(cfg.Seed + 777)
	result := &ScaleResult{ServiceMedian: run.service.Summarize().Median}
	const requestsPerPoint = 6000
	for _, replicas := range []int{1, 2, 4, 8} {
		for _, load := range []float64{0.5, 0.7, 0.9} {
			result.Points = append(result.Points, simulateQueue(samples, replicas, load, requestsPerPoint, jitter))
		}
	}
	result.line("Horizontal scaling of the SGX eUDM module (paper §V-B7)")
	result.line("measured service time median: %v", result.ServiceMedian.Round(time.Microsecond))
	result.csv = result.table(layout([]col[ScalePoint]{
		cnt("replicas", -9, "replicas", func(p ScalePoint) int { return p.Replicas }),
		pct("load", 8, "%.0f%%", "offered_load", func(p ScalePoint) float64 { return p.OfferedLoad }),
		pct("utilization", 12, "%.1f%%", "utilization", func(p ScalePoint) float64 { return p.Utilization }),
		span("mean sojourn", 14, 10*time.Microsecond, "mean_sojourn_ms", func(p ScalePoint) time.Duration { return p.MeanSojourn }),
		span("p95 sojourn", 14, 10*time.Microsecond, "p95_sojourn_ms", func(p ScalePoint) time.Duration { return p.P95Sojourn }),
		num("req/s", 14, "%.0f", "throughput_rps", func(p ScalePoint) float64 { return p.Throughput }),
	}, result.Points))
	result.line("(throughput scales linearly with replicas while p95 sojourn stays bounded")
	result.line(" at fixed offered load — enclave worker pools can grow on demand)")
	return result, nil
}

// event is a pending arrival or departure in the queue simulation.
type eventHeap []float64

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// simulateQueue runs an M/G/c simulation: Poisson arrivals at
// load × c / E[S], FIFO dispatch to the earliest-free replica, service
// times drawn from the measured samples.
func simulateQueue(samples []time.Duration, replicas int, load float64, requests int, jitter *simclock.Jitter) ScalePoint {
	var sum float64
	for _, s := range samples {
		sum += s.Seconds()
	}
	meanService := sum / float64(len(samples))
	arrivalRate := load * float64(replicas) / meanService

	// Earliest-free-time per replica, kept as a min-heap.
	free := make(eventHeap, replicas)
	heap.Init(&free)

	var (
		now      float64
		busy     float64
		sojourns []float64
		lastDone float64
	)
	for i := 0; i < requests; i++ {
		// Exponential inter-arrival.
		now += -math.Log(1-jitter.Float64()) / arrivalRate
		service := samples[jitter.Uint64n(uint64(len(samples)))].Seconds()

		start := heap.Pop(&free).(float64)
		if start < now {
			start = now
		}
		done := start + service
		heap.Push(&free, done)

		busy += service
		sojourns = append(sojourns, done-now)
		if done > lastDone {
			lastDone = done
		}
	}

	sort.Float64s(sojourns)
	mean := 0.0
	for _, s := range sojourns {
		mean += s
	}
	mean /= float64(len(sojourns))
	p95 := sojourns[int(0.95*float64(len(sojourns)-1))]

	return ScalePoint{
		Replicas:    replicas,
		OfferedLoad: load,
		Utilization: busy / (lastDone * float64(replicas)),
		MeanSojourn: time.Duration(mean * float64(time.Second)),
		P95Sojourn:  time.Duration(p95 * float64(time.Second)),
		Throughput:  float64(requests) / lastDone,
	}
}
