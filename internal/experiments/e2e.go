package experiments

import (
	"context"
	"time"

	"shield5g/internal/deploy"
	"shield5g/internal/metrics"
	"shield5g/internal/paka"
	"shield5g/internal/ue"
)

// E2EResult is the end-to-end session setup analysis of §V-B4: the full
// UE registration + PDU session time under container and SGX isolation,
// and the share of the total attributable to SGX.
type E2EResult struct {
	report
	Container metrics.Summary
	SGX       metrics.Summary
	// SGXDelta is the median extra latency from SGX isolation.
	SGXDelta time.Duration
	// SGXShare is SGXDelta / SGX median (paper: 3.48 ms of 62.38 ms,
	// 5.58%).
	SGXShare float64
}

// E2E measures end-to-end session setup time in both deployments.
func E2E(ctx context.Context, cfg Config) (*E2EResult, error) {
	n := min(cfg.iterations(), 100)
	session := func(iso paka.Isolation) (metrics.Summary, error) {
		rec := &metrics.Recorder{}
		_, err := measure(ctx, deploy.SliceConfig{Isolation: iso, Seed: cfg.Seed}, plan{msin: 4000, warm: 9999,
			drive: func(ctx context.Context, s *deploy.Slice, device func(int) (*ue.UE, error)) error {
				for i := 0; i < n; i++ {
					d, err := device(i)
					if err != nil {
						return err
					}
					sess, err := s.GNB.RegisterUE(ctx, d)
					if err != nil {
						return err
					}
					if err := sess.EstablishPDUSession(ctx, 1, "internet"); err != nil {
						return err
					}
					rec.Add(sess.Virtual())
				}
				return nil
			}})
		return rec.Summarize(), err
	}
	result := &E2EResult{}
	var err error
	if result.Container, err = session(paka.Container); err != nil {
		return nil, err
	}
	if result.SGX, err = session(paka.SGX); err != nil {
		return nil, err
	}
	result.SGXDelta = result.SGX.Median - result.Container.Median
	if result.SGX.Median > 0 {
		result.SGXShare = float64(result.SGXDelta) / float64(result.SGX.Median)
	}
	result.line("End-to-end UE session setup (registration + PDU session)")
	result.line("container median: %8.2f ms", ms(result.Container.Median))
	result.line("SGX median:       %8.2f ms (paper: 62.38 ms)", ms(result.SGX.Median))
	result.line("SGX-added delay:  %8.2f ms (paper: 3.48 ms)", ms(result.SGXDelta))
	result.line("SGX share:        %8.2f %% (paper: 5.58 %%)", result.SGXShare*100)
	return result, nil
}
