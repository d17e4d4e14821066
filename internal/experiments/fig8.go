package experiments

import (
	"context"
	"time"

	"shield5g/internal/paka"
)

// Fig8Result holds the thread/EPC sweep.
type Fig8Result struct {
	series
	Points []namedRun
}

// Fig8 sweeps thread count and EPC size on the eUDM P-AKA module,
// registering one UE at a time as in the paper — 4 and 10 threads at
// 512 MiB, 50 threads at 8 GiB, and the non-SGX container baseline: more
// threads change nothing for a single client; an oversized EPC costs
// paging pressure and a wider interquartile range.
func Fig8(ctx context.Context, cfg Config) (*Fig8Result, error) {
	sweep := []struct {
		label string
		opts  rigOptions
	}{
		{"Thread=4 EPC=512M", rigOptions{isolation: paka.SGX, maxThreads: 4, enclaveSize: 512 << 20}},
		{"Thread=10 EPC=512M", rigOptions{isolation: paka.SGX, maxThreads: 10, enclaveSize: 512 << 20}},
		{"Thread=50 EPC=8G", rigOptions{isolation: paka.SGX, maxThreads: 50, enclaveSize: 8 << 30}},
		{"Non-SGX", rigOptions{isolation: paka.Container}},
	}
	result := &Fig8Result{}
	for i, point := range sweep {
		run, err := measureModule(ctx, paka.EUDM, cfg.Seed+uint64(i)*97, point.opts, cfg.iterations())
		if err != nil {
			return nil, err
		}
		result.Points = append(result.Points, namedRun{point.label, run})
	}
	q := func(head, name string, pick func(namedRun) time.Duration) col[namedRun] {
		return num(head, 12, "%.1f", name, func(r namedRun) float64 { return micro(pick(r)) })
	}
	cols := []col[namedRun]{
		str("config", -20, "config", func(r namedRun) string { return r.name }),
		q("LF q1(us)", "lf_q1_us", func(r namedRun) time.Duration { return r.functional.Q1 }),
		q("LF med(us)", "lf_median_us", func(r namedRun) time.Duration { return r.functional.Median }),
		q("LF q3(us)", "lf_q3_us", func(r namedRun) time.Duration { return r.functional.Q3 }),
		str("|", 1, "", func(namedRun) string { return "|" }),
		q("LT q1(us)", "lt_q1_us", func(r namedRun) time.Duration { return r.total.Q1 }),
		q("LT med(us)", "lt_median_us", func(r namedRun) time.Duration { return r.total.Median }),
		q("LT q3(us)", "lt_q3_us", func(r namedRun) time.Duration { return r.total.Q3 }),
	}
	result.line("Figure 8: Threads and EPC size vs eUDM P-AKA latency")
	result.csv = result.table(layout(cols, result.Points))
	return result, nil
}
