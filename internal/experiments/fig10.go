package experiments

import (
	"context"
	"io"
	"time"

	"shield5g/internal/paka"
)

// Fig10Result holds the stable and initial response times of the P-AKA
// modules from the VNF perspective.
type Fig10Result struct {
	fig9 *Fig9Result
}

// Fig10 measures the stable (R_S) and initial (R_I) response time of each
// module. It shares the measurement machinery of Fig. 9 (the paper
// derives both from the same runs).
func Fig10(ctx context.Context, cfg Config) (*Fig10Result, error) {
	f9, err := Fig9(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{fig9: f9}, nil
}

// StableSGX returns R_S^SGX per module.
func (r *Fig10Result) StableSGX(kind paka.ModuleKind) time.Duration {
	return r.fig9.Response[kind].SGX.Median
}

// StableContainer returns R^C per module.
func (r *Fig10Result) StableContainer(kind paka.ModuleKind) time.Duration {
	return r.fig9.Response[kind].Container.Median
}

// Initial returns R_I^SGX per module.
func (r *Fig10Result) Initial(kind paka.ModuleKind) time.Duration {
	return r.fig9.InitialSGX[kind]
}

// Render prints the paper-style rows for Fig. 10a and 10b.
func (r *Fig10Result) Render(w io.Writer) {
	fprintf(w, "Figure 10a: Stable response latency RS (us)\n")
	fprintf(w, "%-8s %14s %14s %8s\n", "module", "container med", "sgx med", "ratio")
	for _, kind := range paka.Kinds() {
		p := r.fig9.Response[kind]
		fprintf(w, "%-8s %14.1f %14.1f %7.2fx\n", kind, micro(p.Container.Median), micro(p.SGX.Median), p.Ratio())
	}
	fprintf(w, "\nFigure 10b: Initial response latency RI (ms, SGX)\n")
	fprintf(w, "%-8s %12s %12s\n", "module", "RI (ms)", "RI/RS")
	for _, kind := range paka.Kinds() {
		ri := r.fig9.InitialSGX[kind]
		rs := r.fig9.Response[kind].SGX.Median
		ratio := 0.0
		if rs > 0 {
			ratio = float64(ri) / float64(rs)
		}
		fprintf(w, "%-8s %12.3f %11.2fx\n", kind, float64(ri)/float64(time.Millisecond), ratio)
	}
}
