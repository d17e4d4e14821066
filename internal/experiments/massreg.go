package experiments

import (
	"context"
	"runtime"
	"time"

	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
)

// massPoint is one parallelism level of the concurrent mass-registration
// sweep; speedup is its wall-clock gain over the sequential point.
type massPoint struct {
	*sliceRun
	speedup float64
}

// MassRegResult is the parallel gNBSIM driver sweep.
type MassRegResult struct {
	series
	UEs    int
	Points []massPoint
}

// MassReg sweeps the gNBSIM mass-registration driver across worker pool
// sizes against a shielded (SGX) slice. Each point deploys a fresh
// same-seed slice, warms the path, then drives the same UE population
// through RegisterManyWith — so the points differ only in driver
// parallelism. It demonstrates that the lock-striped core sustains
// concurrent registrations without failures and without perturbing the
// per-registration SGX transition census: the eUDM's EENTER count (the
// Table III census) and the EENTER+EEXIT total over all three modules.
func MassReg(ctx context.Context, cfg Config) (*MassRegResult, error) {
	result := &MassRegResult{UEs: min(max(cfg.iterations(), 20), 400)}
	for _, par := range []int{1, 2, 4, 8} {
		run, err := measure(ctx, deploy.SliceConfig{Isolation: paka.SGX, Seed: cfg.Seed + 31},
			plan{n: result.UEs, msin: 4000, warm: 9999, mass: gnb.MassOptions{Parallelism: par}})
		if err != nil {
			return nil, err
		}
		result.Points = append(result.Points, massPoint{sliceRun: run})
	}
	for i := range result.Points {
		if w := result.Points[i].mass.Wall; w > 0 {
			result.Points[i].speedup = float64(result.Points[0].mass.Wall) / float64(w)
		}
	}

	result.line("Concurrent mass registration through the shielded core (%d UEs, GOMAXPROCS=%d)", result.UEs, runtime.GOMAXPROCS(0))
	result.csv = result.table(layout([]col[massPoint]{
		cnt("parallelism", -12, "parallelism", func(p massPoint) int { return p.mass.Parallelism }),
		cnt("ok", 6, "registered", func(p massPoint) int { return p.mass.Registered }),
		cnt("fail", 6, "failed", func(p massPoint) int { return p.mass.Failed }),
		span("wall", 10, time.Millisecond, "wall_ms", func(p massPoint) time.Duration { return p.mass.Wall }),
		span("virtual", 10, time.Millisecond, "virtual_ms", func(p massPoint) time.Duration { return p.mass.Virtual }),
		span("median", 10, 10*time.Microsecond, "median_setup_ms", func(p massPoint) time.Duration { return p.setup.Median }),
		span("p99", 10, 10*time.Microsecond, "p99_setup_ms", func(p massPoint) time.Duration { return p.setup.P99 }),
		// Virtual over the registrations it bought: radio included, a
		// closed-loop latency and not a capacity.
		num("virt ms/reg", 12, "%.2f", "virtual_ms_per_reg", func(p massPoint) float64 { return p.perReg(ms(p.mass.Virtual)) }),
		num("EENTER/r", 9, "%.1f", "eenter_per_reg", func(p massPoint) float64 { return p.perReg(float64(p.enters)) }),
		num("trans/r", 8, "%.1f", "transitions_per_reg", massPoint.transPerReg),
		num("speedup", 8, "%.2fx", "speedup", func(p massPoint) float64 { return p.speedup }),
	}, result.Points))
	result.line("transitions/registration gauge (sequential census): %.1f", result.Points[0].transPerReg())
	result.line("(wall-clock speedup tracks available cores; the per-registration enclave")
	result.line(" transition census stays at the paper's ~90 regardless of driver parallelism)")
	return result, nil
}
