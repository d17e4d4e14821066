package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/metrics"
	"shield5g/internal/paka"
	"shield5g/internal/ue"
)

// BatchingPoint is one configuration of the boundary-amortization sweep.
type BatchingPoint struct {
	Label string
	// BatchSize is the keep-alive pipelining depth (0 = a connection per
	// module request, the seed behaviour); PoolDepth is the UDM's AV
	// precomputation ring depth (0 = pool disabled).
	BatchSize int
	PoolDepth int

	Registered int
	Failed     int
	// MedianSetup/P99Setup summarize the per-registration setup time.
	MedianSetup time.Duration
	P99Setup    time.Duration
	// StableRS is the median stable response time of the eUDM module as
	// seen by the UDM VNF (the paper's R_S).
	StableRS time.Duration
	// TransPerReg is the enclave transition count (EENTER+EEXIT, all
	// three modules) per registration; Reduction is its drop vs the
	// unbatched baseline.
	TransPerReg float64
	Reduction   float64
	// AllocsPerReg is the heap cost per registration, provisioning
	// included, counted inside an AllocWindow (not rendered: the Go heap
	// is outside the determinism contract; TestBatchingAmortizes holds the
	// unbatched point to half the seed's figure).
	AllocsPerReg float64
	// Pool counters (zero when the pool is disabled).
	PoolHits    uint64
	PoolMisses  uint64
	PoolRefills uint64
}

// BatchingResult is the keep-alive batching × AV-pool sweep.
type BatchingResult struct {
	UEs    int
	Points []BatchingPoint

	// TransitionsPerReg publishes the best (deepest amortization) point's
	// census as a live gauge next to the baseline's.
	BaselineTransPerReg metrics.Gauge
	BestTransPerReg     metrics.Gauge
}

// Batching sweeps the two boundary-amortization mechanisms against a
// shielded slice: keep-alive request batching (one accept + TLS handshake
// per BatchSize module requests) and the UDM's AV precomputation pool
// (one batch ECALL mints PoolDepth vectors). Every point deploys a fresh
// same-seed slice and drives the same UE population sequentially, so the
// points differ only in amortization settings and the transition census
// is directly comparable.
func Batching(ctx context.Context, cfg Config) (*BatchingResult, error) {
	n := cfg.iterations()
	if n < 16 {
		n = 16
	}
	if n > 200 {
		n = 200
	}

	points := []struct {
		label string
		batch int
		depth int
	}{
		{"unbatched", 0, 0},
		{"keepalive-4", 4, 0},
		{"keepalive-8", 8, 0},
		{"keepalive-16", 16, 0},
		{"avpool-8", 0, 8},
		{"keepalive-8+avpool-8", 8, 8},
	}

	result := &BatchingResult{UEs: n}
	for _, pc := range points {
		s, err := deploy.NewSlice(ctx, deploy.SliceConfig{
			Isolation:   paka.SGX,
			Seed:        cfg.Seed + 47,
			AVPoolDepth: pc.depth,
		})
		if err != nil {
			return nil, err
		}
		point, err := batchingPoint(ctx, s, n, pc.batch)
		s.Stop()
		if err != nil {
			return nil, err
		}
		point.Label = pc.label
		point.PoolDepth = pc.depth
		result.Points = append(result.Points, point)
	}

	base := result.Points[0].TransPerReg
	best := base
	for i := range result.Points {
		p := &result.Points[i]
		if base > 0 {
			p.Reduction = 1 - p.TransPerReg/base
		}
		if p.TransPerReg < best {
			best = p.TransPerReg
		}
	}
	result.BaselineTransPerReg.Set(base)
	result.BestTransPerReg.Set(best)
	return result, nil
}

func batchingPoint(ctx context.Context, s *deploy.Slice, n, batch int) (BatchingPoint, error) {
	// One warm registration keeps the enclave warm-up and cold handshakes
	// out of the measured census (same protocol as the massreg sweep).
	warm, err := sliceSubscriber(ctx, s, "0000009999")
	if err != nil {
		return BatchingPoint{}, err
	}
	if _, err := s.GNB.RegisterUE(ctx, warm); err != nil {
		return BatchingPoint{}, err
	}
	s.RemoteUDM.Response().MarkWarm()
	transBefore := fleetTransitions(s)

	var res *gnb.MassResult
	mallocs, _, err := AllocWindow(func() (err error) {
		res, err = s.GNB.RegisterManyWith(ctx, gnb.MassOptions{
			N: n,
			NewUE: func(i int) (*ue.UE, error) {
				return sliceSubscriber(ctx, s, fmt.Sprintf("%010d", 6000+i))
			},
			BatchSize: batch,
		})
		return err
	})
	if err != nil {
		return BatchingPoint{}, err
	}
	setups := res.SetupTimes.Summarize()
	point := BatchingPoint{
		BatchSize:   batch,
		Registered:  res.Registered,
		Failed:      res.Failed,
		MedianSetup: setups.Median,
		P99Setup:    setups.P99,
		StableRS:    s.RemoteUDM.Response().Stable.Summarize().Median,
	}
	if res.Registered > 0 {
		point.TransPerReg = float64(fleetTransitions(s)-transBefore) / float64(res.Registered)
		point.AllocsPerReg = float64(mallocs) / float64(res.Registered)
	}
	pool := s.UDM.AVPoolStats()
	point.PoolHits = pool.Hits
	point.PoolMisses = pool.Misses
	point.PoolRefills = pool.Refills
	return point, nil
}

// Render prints the sweep table.
func (r *BatchingResult) Render(w io.Writer) {
	fprintf(w, "Enclave boundary amortization: keep-alive batching × AV precomputation pool (%d UEs, sequential)\n", r.UEs)
	fprintf(w, "%-22s %6s %5s %6s %6s %10s %10s %10s %8s %7s %12s\n",
		"configuration", "batch", "pool", "ok", "fail", "median", "p99", "R_S med", "trans/r", "drop", "hits/miss")
	for _, p := range r.Points {
		fprintf(w, "%-22s %6d %5d %6d %6d %10s %10s %10s %8.1f %6.1f%% %6d/%d\n",
			p.Label, p.BatchSize, p.PoolDepth, p.Registered, p.Failed,
			p.MedianSetup.Round(10*time.Microsecond), p.P99Setup.Round(10*time.Microsecond),
			p.StableRS.Round(time.Microsecond),
			p.TransPerReg, p.Reduction*100, p.PoolHits, p.PoolMisses)
	}
	fprintf(w, "transitions/registration gauges: baseline %.1f → best %.1f\n",
		r.BaselineTransPerReg.Value(), r.BestTransPerReg.Value())
	fprintf(w, "(keep-alive sessions pay the accept/TLS/teardown census once per batch;\n")
	fprintf(w, " the AV pool turns the eUDM's ~90-transition request into one batch ECALL pair.\n")
	fprintf(w, " R_S reads 0 under the pool: refills are maintenance crossings, excluded from\n")
	fprintf(w, " the per-request response-time distribution by design)\n")
}

// WriteCSV emits the sweep series.
func (r *BatchingResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%d", p.BatchSize),
			fmt.Sprintf("%d", p.PoolDepth),
			fmt.Sprintf("%d", p.Registered),
			fmt.Sprintf("%d", p.Failed),
			f(ms(p.MedianSetup)),
			f(ms(p.P99Setup)),
			f(ms(p.StableRS)),
			f(p.TransPerReg),
			f(p.Reduction),
			fmt.Sprintf("%d", p.PoolHits),
			fmt.Sprintf("%d", p.PoolMisses),
			fmt.Sprintf("%d", p.PoolRefills),
		})
	}
	return writeCSV(w, []string{
		"configuration", "batch_size", "pool_depth", "registered", "failed",
		"median_setup_ms", "p99_setup_ms", "stable_rs_ms",
		"transitions_per_reg", "reduction", "pool_hits", "pool_misses", "pool_refills",
	}, rows)
}
