package experiments

import (
	"context"
	"time"

	"shield5g/internal/paka"
)

// TEECompareResult compares the HMEE implementations the paper discusses:
// process-level SGX enclaves versus VM-level SEV confidential computing
// versus the unprotected container baseline (§IV-C).
type TEECompareResult struct {
	report
	Rows []namedRun
}

// TEECompare measures the eUDM P-AKA module on each backend.
func TEECompare(ctx context.Context, cfg Config) (*TEECompareResult, error) {
	notes := map[string]string{
		paka.Container.String(): "no HW isolation; host admin reads keys",
		paka.SGX.String():       "smallest TCB; syscall transitions cost latency",
		paka.SEV.String():       "no refactoring, fast; guest OS joins TCB; ciphertext side channels",
	}
	result := &TEECompareResult{}
	for i, iso := range []paka.Isolation{paka.Container, paka.SGX, paka.SEV} {
		run, err := measureModule(ctx, paka.EUDM, cfg.Seed+uint64(i)*389, paka.Config{Isolation: iso}, cfg.iterations())
		if err != nil {
			return nil, err
		}
		result.Rows = append(result.Rows, namedRun{iso.String(), run})
	}
	result.line("HMEE implementation comparison on the eUDM P-AKA module (paper §IV-C)")
	result.table(layout([]col[namedRun]{
		str("backend", -10, "", func(r namedRun) string { return r.name }),
		span("load", 10, time.Millisecond, "", func(r namedRun) time.Duration { return r.load }),
		num("stable med(us)", 14, "%.1f", "", func(r namedRun) float64 { return micro(r.stable.Median) }),
		span("initial", 12, 10*time.Microsecond, "", func(r namedRun) time.Duration { return r.initial }),
		num("EENTER/req", 10, "%.1f", "", func(r namedRun) float64 { return r.enters }),
		num("TCB(GB)", 9, "%.2f", "", func(r namedRun) float64 { return float64(r.tcb) / (1 << 30) }),
		str(" trade-off", 0, "", func(r namedRun) string { return " " + notes[r.name] }),
	}, result.Rows))
	result.line("(the paper's position: secure VMs avoid SGX's refactoring and latency costs")
	result.line(" but their large TCB can make them unsuitable for the most critical functions)")
	return result, nil
}
