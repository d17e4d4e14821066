package experiments

import (
	"context"
	"time"

	"shield5g/internal/paka"
)

// AblationResult holds the optimization sweep.
type AblationResult struct {
	report
	Rows []namedRun
}

// Ablation measures the optimizations the paper proposes in §V-B7 against
// the baselines, on the eUDM module: Gramine's exitless (switchless)
// calls, an mTCP-style user-level network stack inside the enclave,
// disabling enclave preheating, and the plain-container reference. Each
// row reports the latency effect alongside the costs the paper warns about
// (load time, TCB growth, transition counts).
func Ablation(ctx context.Context, cfg Config) (*AblationResult, error) {
	configs := []struct {
		name   string
		module paka.Config
	}{
		{"container", paka.Config{Isolation: paka.Container}},
		{"sgx (paper baseline)", paka.Config{Isolation: paka.SGX}},
		{"sgx no-preheat", paka.Config{Isolation: paka.SGX, DisablePreheat: true}},
		{"sgx exitless", paka.Config{Isolation: paka.SGX, Exitless: true}},
		{"sgx user-level TCP", paka.Config{Isolation: paka.SGX, UserLevelTCP: true}},
		{"sgx exitless+userTCP", paka.Config{Isolation: paka.SGX, Exitless: true, UserLevelTCP: true}},
	}
	result := &AblationResult{}
	for i, c := range configs {
		run, err := measureModule(ctx, paka.EUDM, cfg.Seed+uint64(i)*977, c.module, cfg.iterations())
		if err != nil {
			return nil, err
		}
		result.Rows = append(result.Rows, namedRun{c.name, run})
	}
	result.line("Optimization ablation on the eUDM P-AKA module (paper §V-B7)")
	result.table(layout([]col[namedRun]{
		str("config", -22, "", func(r namedRun) string { return r.name }),
		span("load", 10, time.Millisecond, "", func(r namedRun) time.Duration { return r.load }),
		span("initial", 12, 10*time.Microsecond, "", func(r namedRun) time.Duration { return r.initial }),
		num("stable med(us)", 14, "%.1f", "", func(r namedRun) float64 { return micro(r.stable.Median) }),
		num("EENTER/req", 10, "%.1f", "", func(r namedRun) float64 { return r.enters }),
		num("TCB(GB)", 10, "%.2f", "", func(r namedRun) float64 { return float64(r.tcb) / (1 << 30) }),
	}, result.Rows))
	result.line("(exitless and user-level TCP cut transitions and latency; the costs are")
	result.line(" occupied helper cores, a bigger measured TCB, and — for no-preheat — a")
	result.line(" cheaper load traded for demand-paging during operation)")
	return result, nil
}
