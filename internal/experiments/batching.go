package experiments

import (
	"context"
	"fmt"
	"time"

	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
)

// batchPoint is one configuration of the boundary-amortization sweep:
// batch is the keep-alive pipelining depth (0 = a connection per module
// request, the seed behaviour), depth the UDM's AV precomputation ring
// depth (0 = pool disabled), reduction the drop of the transition census
// against the unbatched baseline.
type batchPoint struct {
	label        string
	batch, depth int
	*sliceRun
	reduction float64
}

// BatchingResult is the keep-alive batching × AV-pool sweep.
type BatchingResult struct {
	series
	UEs    int
	Points []batchPoint
}

// Batching sweeps the two boundary-amortization mechanisms against a
// shielded slice: keep-alive request batching (one accept + TLS handshake
// per batch module requests) and the UDM's AV precomputation pool (one
// batch ECALL mints depth vectors). Every point deploys a fresh same-seed
// slice and drives the same UE population sequentially, so the points
// differ only in amortization settings and the transition census
// (EENTER+EEXIT over all three modules) is directly comparable. The heap
// cost per registration, provisioning included, is counted but not
// rendered: the Go heap is outside the determinism contract, and
// TestBatchingAmortizes holds the unbatched point to UnbatchedAllocBudget.
func Batching(ctx context.Context, cfg Config) (*BatchingResult, error) {
	result := &BatchingResult{UEs: min(max(cfg.iterations(), 16), 200)}
	for _, pc := range []batchPoint{
		{label: "unbatched"},
		{label: "keepalive-4", batch: 4},
		{label: "keepalive-8", batch: 8},
		{label: "keepalive-16", batch: 16},
		{label: "avpool-8", depth: 8},
		{label: "keepalive-8+avpool-8", batch: 8, depth: 8},
	} {
		var err error
		pc.sliceRun, err = measure(ctx,
			deploy.SliceConfig{Isolation: paka.SGX, Seed: cfg.Seed + 47, AVPoolDepth: pc.depth},
			plan{n: result.UEs, msin: 6000, warm: 9999, heap: true, mass: gnb.MassOptions{BatchSize: pc.batch}})
		if err != nil {
			return nil, err
		}
		result.Points = append(result.Points, pc)
	}
	base := result.Points[0].transPerReg()
	best := base
	for i := range result.Points {
		p := &result.Points[i]
		if base > 0 {
			p.reduction = 1 - p.transPerReg()/base
		}
		best = min(best, p.transPerReg())
	}

	result.line("Enclave boundary amortization: keep-alive batching × AV precomputation pool (%d UEs, sequential)", result.UEs)
	result.csv = result.table(layout([]col[batchPoint]{
		str("configuration", -22, "configuration", func(p batchPoint) string { return p.label }),
		cnt("batch", 6, "batch_size", func(p batchPoint) int { return p.batch }),
		cnt("pool", 5, "pool_depth", func(p batchPoint) int { return p.depth }),
		cnt("ok", 6, "registered", func(p batchPoint) int { return p.mass.Registered }),
		cnt("fail", 6, "failed", func(p batchPoint) int { return p.mass.Failed }),
		span("median", 10, 10*time.Microsecond, "median_setup_ms", func(p batchPoint) time.Duration { return p.setup.Median }),
		span("p99", 10, 10*time.Microsecond, "p99_setup_ms", func(p batchPoint) time.Duration { return p.setup.P99 }),
		span("R_S med", 10, time.Microsecond, "stable_rs_ms", func(p batchPoint) time.Duration { return p.stableRS }),
		num("trans/r", 8, "%.1f", "transitions_per_reg", batchPoint.transPerReg),
		pct("drop", 7, "%.1f%%", "reduction", func(p batchPoint) float64 { return p.reduction }),
		{"   hits/miss", 0, func(p batchPoint) string { return fmt.Sprintf("%6d/%d", p.pool.Hits, p.pool.Misses) }, "pool_hits", func(p batchPoint) string { return fmt.Sprint(p.pool.Hits) }},
		cnt("", 0, "pool_misses", func(p batchPoint) uint64 { return p.pool.Misses }),
		cnt("", 0, "pool_refills", func(p batchPoint) uint64 { return p.pool.Refills }),
	}, result.Points))
	result.line("transitions/registration gauges: baseline %.1f → best %.1f", base, best)
	result.line("(keep-alive sessions pay the accept/TLS/teardown census once per batch;")
	result.line(" the AV pool turns the eUDM's ~90-transition request into one batch ECALL pair.")
	result.line(" R_S reads 0 under the pool: refills are maintenance crossings, excluded from")
	result.line(" the per-request response-time distribution by design)")
	return result, nil
}
