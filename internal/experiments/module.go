package experiments

import (
	"context"
	"fmt"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/metrics"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
)

// rig deploys one P-AKA module in isolation and drives requests through
// it, reproducing the paper's module-level measurement setup.
type rig struct {
	kind   paka.ModuleKind
	module *paka.Module
	remote *paka.Remote
	av     *paka.UDMGenerateAVResponse
}

var rigKey = []byte{0x46, 0x5b, 0x5c, 0xe8, 0xb1, 0x99, 0xb4, 0x9f, 0xaa, 0x5f, 0x0a, 0x2e, 0xe2, 0x38, 0xa6, 0xbc}
var rigOPc = []byte{0xcd, 0x63, 0xcb, 0x71, 0x95, 0x4a, 0x9f, 0x4e, 0x48, 0xa5, 0x99, 0x4e, 0x37, 0xa0, 0x2b, 0xaf}

const (
	rigSUPI = "imsi-001010000000001"
	rigSNN  = "5G:mnc001.mcc001.3gppnetwork.org"
)

// newRig deploys the module on a fresh platform/environment. cfg carries
// the deployment's tuning (isolation, enclave size, threads, preheat,
// exitless calls, user-level TCP); newRig fills in the kind and the
// platform, environment and registry it creates.
func newRig(ctx context.Context, kind paka.ModuleKind, seed uint64, cfg paka.Config) (*rig, error) {
	env := costmodel.NewEnv(nil, seed)
	registry := sbi.NewRegistry()
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	cfg.Kind, cfg.Env, cfg.Platform, cfg.SEVHost, cfg.Registry = kind, env, platform, sev.NewPlatform(), registry
	m, err := paka.New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	remote := paka.NewRemote(sbi.NewClient("parent-vnf", env, registry), env, kind.ServiceName())
	r := &rig{kind: kind, module: m, remote: remote}
	if kind == paka.EUDM {
		err = m.ProvisionSubscriber(ctx, rigSUPI, rigKey)
	} else {
		r.av, err = paka.GenerateAV(rigKey, rigAVRequest())
	}
	if err != nil {
		m.Stop(ctx)
		return nil, err
	}
	return r, nil
}

func rigAVRequest() *paka.UDMGenerateAVRequest {
	return &paka.UDMGenerateAVRequest{
		SUPI:  rigSUPI,
		OPc:   rigOPc,
		RAND:  []byte{0x23, 0x55, 0x3c, 0xbe, 0x96, 0x37, 0xa8, 0x9d, 0x21, 0x8a, 0xe6, 0x4d, 0xae, 0x47, 0xbf, 0x35},
		SQN:   []byte{0, 0, 0, 0, 0, 0x21},
		AMFID: []byte{0x80, 0x00},
		SNN:   rigSNN,
	}
}

// invoke drives one request. The rig's Remote books its response time:
// the first answer as R_I, every later one as R_S.
func (r *rig) invoke(ctx context.Context) (err error) {
	switch r.kind {
	case paka.EUDM:
		_, err = r.remote.GenerateAV(ctx, rigAVRequest())
	case paka.EAUSF:
		_, err = r.remote.DeriveSE(ctx, &paka.AUSFDeriveSERequest{
			RAND: r.av.RAND, XRESStar: r.av.XRESStar, KAUSF: r.av.KAUSF, SNN: rigSNN,
		})
	case paka.EAMF:
		// K_AUSF stands in for K_SEAF: any 32 bytes but zero, which
		// travels as null and would shorten the modelled request.
		_, err = r.remote.DeriveKAMF(ctx, &paka.AMFDeriveKAMFRequest{
			KSEAF: r.av.KAUSF, SUPI: rigSUPI, ABBA: []byte{0, 0},
		})
	}
	return err
}

// moduleRun is everything a row reads of one measured module: what the
// deployment cost, the cold first request, and the warm window.
type moduleRun struct {
	load    time.Duration // modelled deployment time
	tcb     uint64        // trusted computing base the configuration carries
	initial time.Duration // cold first-request response time
	// stable summarises the warm VNF-side response times, functional and
	// total the module-side L_F and L_T of the same requests.
	stable, functional, total metrics.Summary
	// enters is the EENTER count per warm request (zero off SGX): the
	// cold request's lazy-loading OCALLs are not part of it.
	enters float64
}

// namedRun is one labelled module measurement: a row of the ablation, the
// thread/EPC sweep or the backend comparison.
type namedRun struct {
	name string
	*moduleRun
}

// measureModule deploys one module, pays its cold request, then measures
// n warm ones.
func measureModule(ctx context.Context, kind paka.ModuleKind, seed uint64, cfg paka.Config, n int) (*moduleRun, error) {
	r, err := newRig(ctx, kind, seed, cfg)
	if err != nil {
		return nil, err
	}
	defer r.module.Stop(ctx)
	run := &moduleRun{load: r.module.LoadDuration(), tcb: r.module.TCBBytes()}
	if err := r.invoke(ctx); err != nil {
		return nil, err
	}
	response := r.remote.Response()
	run.initial = response.Initial.Samples()[0]
	r.module.ResetRecorders()
	entersBefore := r.module.Stats().EENTER
	for i := 0; i < n; i++ {
		if err := r.invoke(ctx); err != nil {
			return nil, err
		}
	}
	if run.stable, err = summarizeWindow("R_S", response.Stable); err != nil {
		return nil, err
	}
	if run.functional, err = summarizeWindow("L_F", r.module.FunctionalLatency()); err != nil {
		return nil, err
	}
	if run.total, err = summarizeWindow("L_T", r.module.TotalLatency()); err != nil {
		return nil, err
	}
	run.enters = float64(r.module.Stats().EENTER-entersBefore) / float64(max(n, 1))
	return run, nil
}

// summarizeWindow summarises a bounded recorder, refusing one that no
// longer keeps every sample added since its last reset: a summary of the
// tail would silently stand in for the whole window. A larger experiment
// needs a larger paka.LatencyWindow.
func summarizeWindow(name string, r *metrics.Recorder) (metrics.Summary, error) {
	if n, kept := r.N(), len(r.Samples()); n > kept {
		return metrics.Summary{}, fmt.Errorf("experiments: %s window kept %d of %d samples (paka.LatencyWindow)", name, kept, n)
	}
	return r.Summarize(), nil
}
