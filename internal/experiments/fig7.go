package experiments

import (
	"context"

	"shield5g/internal/metrics"
	"shield5g/internal/paka"
)

// loadBox is one module's enclave load-time distribution.
type loadBox struct {
	kind paka.ModuleKind
	metrics.Summary
}

// Fig7Result holds enclave load time distributions per P-AKA module.
type Fig7Result struct {
	series
	Load []loadBox
}

// Fig7 measures enclave load time for the three P-AKA modules: each
// iteration builds the module's shielded container on a fresh platform
// and records the time until it is operational (GSC trusted-file
// measurement + EADD/EEXTEND + preheat pre-faulting dominate).
func Fig7(ctx context.Context, cfg Config) (*Fig7Result, error) {
	// Full 500-iteration builds are unnecessary for a deterministic
	// model with seeded jitter; cap at 100 per module by default scale.
	n := min(cfg.iterations(), 100)
	result := &Fig7Result{}
	for _, kind := range paka.Kinds() {
		rec := &metrics.Recorder{}
		for i := 0; i < n; i++ {
			r, err := newRig(ctx, kind, cfg.Seed+uint64(kind)*1000+uint64(i), rigOptions{isolation: paka.SGX})
			if err != nil {
				return nil, err
			}
			rec.Add(r.module.LoadDuration())
			r.module.Stop()
		}
		result.Load = append(result.Load, loadBox{kind, rec.Summarize()})
	}
	box := func(head, name string, pick func(loadBox) float64) col[loadBox] {
		return num(head, 10, "%.4f", name, pick)
	}
	result.line("Figure 7: Enclave load time for the P-AKA modules")
	// The text prints the box first, the series in ascending order.
	cols := []col[loadBox]{
		str("module", -8, "module", func(b loadBox) string { return b.kind.String() }),
		box("", "min_min", func(b loadBox) float64 { return b.Min.Minutes() }),
		box("q1(min)", "q1_min", func(b loadBox) float64 { return b.Q1.Minutes() }),
		box("med(min)", "median_min", func(b loadBox) float64 { return b.Median.Minutes() }),
		box("q3(min)", "q3_min", func(b loadBox) float64 { return b.Q3.Minutes() }),
		box("min", "", func(b loadBox) float64 { return b.Min.Minutes() }),
		box("max", "max_min", func(b loadBox) float64 { return b.Max.Minutes() }),
	}
	result.csv = result.table(layout(cols, result.Load))
	return result, nil
}
