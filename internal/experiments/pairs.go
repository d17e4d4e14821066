package experiments

import (
	"context"

	"shield5g/internal/metrics"
	"shield5g/internal/paka"
)

// isoPair is one module measured under both isolation modes.
type isoPair struct {
	kind           paka.ModuleKind
	container, sgx *moduleRun
}

// ratio is the SGX/container median overhead on one of the run's metrics.
func (p isoPair) ratio(pick func(*moduleRun) metrics.Summary) float64 {
	return metrics.Ratio(pick(p.sgx), pick(p.container))
}

// initialRatio is R_I^SGX / R_S^SGX.
func (p isoPair) initialRatio() float64 {
	if p.sgx.stable.Median == 0 {
		return 0
	}
	return float64(p.sgx.initial) / float64(p.sgx.stable.Median)
}

// The three metrics the paper compares across isolation modes.
func functional(r *moduleRun) metrics.Summary { return r.functional }
func total(r *moduleRun) metrics.Summary      { return r.total }
func stable(r *moduleRun) metrics.Summary     { return r.stable }

// measurePairs measures L_F, L_T and the response times of each P-AKA
// module in container and SGX deployments (500 registrations each by
// default). The same runs yield Fig. 9, the stable and initial response
// times of Fig. 10 and the ratios of Table II.
func measurePairs(ctx context.Context, cfg Config) ([]isoPair, error) {
	var pairs []isoPair
	for _, kind := range paka.Kinds() {
		pair := isoPair{kind: kind}
		for _, iso := range []paka.Isolation{paka.Container, paka.SGX} {
			run, err := measureModule(ctx, kind, cfg.Seed+uint64(kind)*31+uint64(iso)*131, rigOptions{isolation: iso}, cfg.iterations())
			if err != nil {
				return nil, err
			}
			if iso == paka.SGX {
				pair.sgx = run
			} else {
				pair.container = run
			}
		}
		pairs = append(pairs, pair)
	}
	return pairs, nil
}

// pairTable is the container-vs-SGX median table of one metric, in µs.
func pairTable(pairs []isoPair, pick func(*moduleRun) metrics.Summary) grid {
	return layout([]col[isoPair]{
		str("module", -8, "", func(p isoPair) string { return p.kind.String() }),
		num("container med", 14, "%.1f", "", func(p isoPair) float64 { return micro(pick(p.container).Median) }),
		num("sgx med", 14, "%.1f", "", func(p isoPair) float64 { return micro(pick(p.sgx).Median) }),
		num("ratio", 8, "%.2fx", "", func(p isoPair) float64 { return p.ratio(pick) }),
	}, pairs)
}

// PairsResult is a figure or table derived from the paired runs.
type PairsResult struct {
	series
	Pairs []isoPair
}

// Fig9 reports the functional (a) and total (b) latency of every module
// under both isolation modes.
func Fig9(ctx context.Context, cfg Config) (*PairsResult, error) {
	pairs, err := measurePairs(ctx, cfg)
	if err != nil {
		return nil, err
	}
	result := &PairsResult{Pairs: pairs}
	result.line("Figure 9a: Functional latency LF (us)")
	result.table(pairTable(pairs, functional))
	result.line("")
	result.line("Figure 9b: Total latency LT (us)")
	result.table(pairTable(pairs, total))

	// The series has one row per module and isolation mode.
	type isoRun struct {
		kind paka.ModuleKind
		iso  paka.Isolation
		*moduleRun
	}
	var runs []isoRun
	for _, p := range pairs {
		runs = append(runs, isoRun{p.kind, paka.Container, p.container}, isoRun{p.kind, paka.SGX, p.sgx})
	}
	result.csv = layout([]col[isoRun]{
		str("", 0, "module", func(r isoRun) string { return r.kind.String() }),
		str("", 0, "isolation", func(r isoRun) string { return r.iso.String() }),
		num("", 0, "", "lf_median_us", func(r isoRun) float64 { return micro(r.functional.Median) }),
		num("", 0, "", "lt_median_us", func(r isoRun) float64 { return micro(r.total.Median) }),
	}, runs)
	return result, nil
}

// Fig10 reports the stable (R_S) and initial (R_I) response time of each
// module from the VNF perspective.
func Fig10(ctx context.Context, cfg Config) (*PairsResult, error) {
	pairs, err := measurePairs(ctx, cfg)
	if err != nil {
		return nil, err
	}
	result := &PairsResult{Pairs: pairs}
	result.line("Figure 10a: Stable response latency RS (us)")
	result.table(pairTable(pairs, stable))
	result.line("")
	result.line("Figure 10b: Initial response latency RI (ms, SGX)")
	result.csv = result.table(layout([]col[isoPair]{
		str("module", -8, "module", func(p isoPair) string { return p.kind.String() }),
		num("", 0, "", "rc_median_us", func(p isoPair) float64 { return micro(p.container.stable.Median) }),
		num("", 0, "", "rs_sgx_median_us", func(p isoPair) float64 { return micro(p.sgx.stable.Median) }),
		num("RI (ms)", 12, "%.3f", "ri_sgx_ms", func(p isoPair) float64 { return ms(p.sgx.initial) }),
		num("RI/RS", 12, "%.2fx", "", isoPair.initialRatio),
	}, pairs))
	return result, nil
}

// Table2 derives the SGX overhead summary from the same runs (paper: LF
// 1.2-1.5x, LT 1.86-2.43x, R 2.2-2.9x, RI/RS ~18.4-21.4x).
func Table2(ctx context.Context, cfg Config) (*report, error) {
	pairs, err := measurePairs(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return table2(pairs), nil
}

func table2(pairs []isoPair) *report {
	result := &report{}
	result.line("Table II: SGX overhead across the isolated modules")
	result.table(layout([]col[isoPair]{
		str("module", -8, "", func(p isoPair) string { return p.kind.String() }),
		num("LF", 8, "%.2fx", "", func(p isoPair) float64 { return p.ratio(functional) }),
		num("LT", 8, "%.2fx", "", func(p isoPair) float64 { return p.ratio(total) }),
		num("RSGX/RC", 14, "%.2fx", "", func(p isoPair) float64 { return p.ratio(stable) }),
		num("RI/RS", 14, "%.2fx", "", isoPair.initialRatio),
	}, pairs))
	result.line("(paper: LF 1.2-1.5x, LT 1.86-2.43x, R 2.2-2.9x, RI/RS 18.4-21.4x)")
	return result
}
