package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/metrics"
	"shield5g/internal/paka"
	"shield5g/internal/ue"
)

// MassRegPoint is one parallelism level of the concurrent
// mass-registration sweep.
type MassRegPoint struct {
	Parallelism int
	Registered  int
	Failed      int
	// Wall/Virtual are the driver-loop windows on the two clocks;
	// VirtualMSPerReg is Virtual over the registrations it bought (radio
	// included — a closed-loop latency, not a capacity).
	Wall            time.Duration
	Virtual         time.Duration
	VirtualMSPerReg float64
	// MedianSetup/P99Setup are the per-registration virtual setup-time
	// median and 99th percentile (the tail the pool/batching work targets).
	MedianSetup time.Duration
	P99Setup    time.Duration
	// EENTERPerReg is the eUDM module's enclave-entry count per
	// registration — the Table III census must hold under concurrency.
	EENTERPerReg float64
	// TransPerReg is the total enclave transition count (EENTER+EEXIT,
	// summed over all three P-AKA modules) per registration.
	TransPerReg float64
	// Speedup is the wall-clock gain over the sequential point.
	Speedup float64
}

// MassRegResult is the parallel gNBSIM driver sweep.
type MassRegResult struct {
	UEs        int
	GOMAXPROCS int
	Points     []MassRegPoint

	// TransitionsPerReg publishes the sequential point's whole-slice
	// transition census as a live gauge.
	TransitionsPerReg metrics.Gauge
}

// MassReg sweeps the gNBSIM mass-registration driver across worker pool
// sizes against a shielded (SGX) slice. Each point deploys a fresh
// same-seed slice, warms the path, then drives the same UE population
// through RegisterManyWith — so the points differ only in driver
// parallelism. It demonstrates that the lock-striped core sustains
// concurrent registrations without failures and without perturbing the
// per-registration SGX transition census.
func MassReg(ctx context.Context, cfg Config) (*MassRegResult, error) {
	n := cfg.iterations()
	if n < 20 {
		n = 20
	}
	if n > 400 {
		n = 400
	}

	result := &MassRegResult{UEs: n, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, par := range []int{1, 2, 4, 8} {
		s, err := deploy.NewSlice(ctx, deploy.SliceConfig{Isolation: paka.SGX, Seed: cfg.Seed + 31})
		if err != nil {
			return nil, err
		}
		point, err := massRegPoint(ctx, s, n, par)
		s.Stop()
		if err != nil {
			return nil, err
		}
		result.Points = append(result.Points, point)
	}
	result.TransitionsPerReg.Set(result.Points[0].TransPerReg)
	base := result.Points[0].Wall
	for i := range result.Points {
		if w := result.Points[i].Wall; w > 0 {
			result.Points[i].Speedup = float64(base) / float64(w)
		}
	}
	return result, nil
}

func massRegPoint(ctx context.Context, s *deploy.Slice, n, par int) (MassRegPoint, error) {
	// Warm the slice so one-off costs (TLS handshakes, enclave warm-up)
	// stay out of the steady-state census.
	warm, err := sliceSubscriber(ctx, s, "0000009999")
	if err != nil {
		return MassRegPoint{}, err
	}
	if _, err := s.GNB.RegisterUE(ctx, warm); err != nil {
		return MassRegPoint{}, err
	}
	eudm := s.Modules[paka.EUDM]
	entersBefore := eudm.Stats().EENTER
	transBefore := fleetTransitions(s)

	res, err := s.GNB.RegisterManyWith(ctx, gnb.MassOptions{
		N: n,
		NewUE: func(i int) (*ue.UE, error) {
			return sliceSubscriber(ctx, s, fmt.Sprintf("%010d", 4000+i))
		},
		Parallelism: par,
	})
	if err != nil {
		return MassRegPoint{}, err
	}
	point := MassRegPoint{
		Parallelism: res.Parallelism,
		Registered:  res.Registered,
		Failed:      res.Failed,
		Wall:        res.Wall,
		Virtual:     res.Virtual,
		MedianSetup: res.SetupTimes.Summarize().Median,
		P99Setup:    res.SetupTimes.Summarize().P99,
	}
	if res.Registered > 0 {
		point.VirtualMSPerReg = ms(res.Virtual) / float64(res.Registered)
		point.EENTERPerReg = float64(eudm.Stats().EENTER-entersBefore) / float64(res.Registered)
		point.TransPerReg = float64(fleetTransitions(s)-transBefore) / float64(res.Registered)
	}
	return point, nil
}

// Render prints the sweep table.
func (r *MassRegResult) Render(w io.Writer) {
	fprintf(w, "Concurrent mass registration through the shielded core (%d UEs, GOMAXPROCS=%d)\n", r.UEs, r.GOMAXPROCS)
	fprintf(w, "%-12s %6s %6s %10s %10s %10s %10s %12s %9s %8s %8s\n",
		"parallelism", "ok", "fail", "wall", "virtual", "median", "p99", "virt ms/reg", "EENTER/r", "trans/r", "speedup")
	for _, p := range r.Points {
		fprintf(w, "%-12d %6d %6d %10s %10s %10s %10s %12.2f %9.1f %8.1f %7.2fx\n",
			p.Parallelism, p.Registered, p.Failed,
			p.Wall.Round(time.Millisecond), p.Virtual.Round(time.Millisecond),
			p.MedianSetup.Round(10*time.Microsecond), p.P99Setup.Round(10*time.Microsecond),
			p.VirtualMSPerReg, p.EENTERPerReg, p.TransPerReg, p.Speedup)
	}
	fprintf(w, "transitions/registration gauge (sequential census): %.1f\n", r.TransitionsPerReg.Value())
	fprintf(w, "(wall-clock speedup tracks available cores; the per-registration enclave\n")
	fprintf(w, " transition census stays at the paper's ~90 regardless of driver parallelism)\n")
}

// WriteCSV emits the sweep series.
func (r *MassRegResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Parallelism),
			fmt.Sprintf("%d", p.Registered),
			fmt.Sprintf("%d", p.Failed),
			f(ms(p.Wall)),
			f(ms(p.Virtual)),
			f(ms(p.MedianSetup)),
			f(ms(p.P99Setup)),
			f(p.VirtualMSPerReg),
			f(p.EENTERPerReg),
			f(p.TransPerReg),
			f(p.Speedup),
		})
	}
	return writeCSV(w, []string{
		"parallelism", "registered", "failed", "wall_ms", "virtual_ms", "median_setup_ms", "p99_setup_ms",
		"virtual_ms_per_reg", "eenter_per_reg", "transitions_per_reg", "speedup",
	}, rows)
}
