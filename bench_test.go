package shield5g_test

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. The simulated testbed measures in deterministic
// virtual time, so each benchmark reports the modelled quantity as a
// custom metric (virtual-us/op, virtual-s/load, ...) alongside the real
// wall-clock ns/op of executing the simulation itself. The
// mass-registration workloads, their end-to-end and per-layer metrics and
// their gates live in bench/ (`bash bench/run.sh`, BENCHMARK.json), not
// here.

import (
	"context"
	"fmt"
	"testing"

	"shield5g"
	"shield5g/internal/costmodel"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// benchRig deploys one P-AKA module and a client for module-level benches.
type benchRig struct {
	env    *costmodel.Env
	module *paka.Module
	client *sbi.Client
	av     *paka.UDMGenerateAVResponse
}

var benchKey = []byte{0x46, 0x5b, 0x5c, 0xe8, 0xb1, 0x99, 0xb4, 0x9f, 0xaa, 0x5f, 0x0a, 0x2e, 0xe2, 0x38, 0xa6, 0xbc}
var benchOPc = []byte{0xcd, 0x63, 0xcb, 0x71, 0x95, 0x4a, 0x9f, 0x4e, 0x48, 0xa5, 0x99, 0x4e, 0x37, 0xa0, 0x2b, 0xaf}

const benchSUPI = "imsi-001010000000001"

func benchAVRequest() *paka.UDMGenerateAVRequest {
	return &paka.UDMGenerateAVRequest{
		SUPI:  benchSUPI,
		OPc:   benchOPc,
		RAND:  []byte{0x23, 0x55, 0x3c, 0xbe, 0x96, 0x37, 0xa8, 0x9d, 0x21, 0x8a, 0xe6, 0x4d, 0xae, 0x47, 0xbf, 0x35},
		SQN:   []byte{0, 0, 0, 0, 0, 0x21},
		AMFID: []byte{0x80, 0x00},
		SNN:   "5G:mnc001.mcc001.3gppnetwork.org",
	}
}

func newBenchRig(b *testing.B, kind paka.ModuleKind, iso paka.Isolation) *benchRig {
	b.Helper()
	env := costmodel.NewEnv(nil, 1)
	registry := sbi.NewRegistry()
	var platform *sgx.Platform
	if iso == paka.SGX {
		var err error
		platform, err = sgx.NewPlatform(sgx.PlatformConfig{Seed: 1})
		if err != nil {
			b.Fatalf("NewPlatform: %v", err)
		}
	}
	m, err := paka.New(context.Background(), paka.Config{
		Kind: kind, Isolation: iso, Env: env, Platform: platform, Registry: registry,
	})
	if err != nil {
		b.Fatalf("paka.New: %v", err)
	}
	b.Cleanup(m.Stop)
	r := &benchRig{env: env, module: m, client: sbi.NewClient("bench-vnf", env, registry)}
	if kind == paka.EUDM {
		if err := m.ProvisionSubscriber(context.Background(), benchSUPI, benchKey); err != nil {
			b.Fatalf("provision: %v", err)
		}
	} else {
		av, err := paka.GenerateAV(benchKey, benchAVRequest())
		if err != nil {
			b.Fatalf("GenerateAV: %v", err)
		}
		r.av = av
	}
	return r
}

// invoke issues one module request and returns the charged cycles.
func (r *benchRig) invoke(b *testing.B, kind paka.ModuleKind) simclock.Cycles {
	b.Helper()
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	var err error
	switch kind {
	case paka.EUDM:
		err = r.client.Post(ctx, kind.ServiceName(), paka.PathUDMGenerateAV, benchAVRequest(), &paka.UDMGenerateAVResponse{})
	case paka.EAUSF:
		err = r.client.Post(ctx, kind.ServiceName(), paka.PathAUSFDeriveSE, &paka.AUSFDeriveSERequest{
			RAND: r.av.RAND, XRESStar: r.av.XRESStar, KAUSF: r.av.KAUSF, SNN: "5G:mnc001.mcc001.3gppnetwork.org",
		}, &paka.AUSFDeriveSEResponse{})
	case paka.EAMF:
		err = r.client.Post(ctx, kind.ServiceName(), paka.PathAMFDeriveKAMF, &paka.AMFDeriveKAMFRequest{
			KSEAF: make([]byte, 32), SUPI: benchSUPI, ABBA: []byte{0, 0},
		}, &paka.AMFDeriveKAMFResponse{})
	}
	if err != nil {
		b.Fatalf("invoke %s: %v", kind, err)
	}
	return acct.Total()
}

// BenchmarkFig7EnclaveLoad regenerates Fig. 7: the enclave build +
// preheat cost per P-AKA module. Reported metric: virtual seconds per
// load (paper: ~57-59 s).
func BenchmarkFig7EnclaveLoad(b *testing.B) {
	for _, kind := range paka.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			env := costmodel.NewEnv(nil, 1)
			var totalLoad float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				platform, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: uint64(i)})
				if err != nil {
					b.Fatalf("NewPlatform: %v", err)
				}
				registry := sbi.NewRegistry()
				m, err := paka.New(context.Background(), paka.Config{
					Kind: kind, Isolation: paka.SGX, Env: env, Platform: platform, Registry: registry,
				})
				if err != nil {
					b.Fatalf("paka.New: %v", err)
				}
				totalLoad += m.LoadDuration().Seconds()
				m.Stop()
			}
			b.ReportMetric(totalLoad/float64(b.N), "virtual-s/load")
		})
	}
}

// BenchmarkFig8ThreadsEPC regenerates Fig. 8: the eUDM module under the
// paper's thread/EPC sweep. Reported metric: virtual µs of total latency
// per request.
func BenchmarkFig8ThreadsEPC(b *testing.B) {
	configs := []struct {
		name    string
		iso     paka.Isolation
		threads int
		size    uint64
	}{
		{"threads4-epc512M", paka.SGX, 4, 512 << 20},
		{"threads10-epc512M", paka.SGX, 10, 512 << 20},
		{"threads50-epc8G", paka.SGX, 50, 8 << 30},
		{"non-sgx", paka.Container, 0, 0},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			env := costmodel.NewEnv(nil, 1)
			registry := sbi.NewRegistry()
			var platform *sgx.Platform
			if cfg.iso == paka.SGX {
				var err error
				platform, err = sgx.NewPlatform(sgx.PlatformConfig{Seed: 1})
				if err != nil {
					b.Fatalf("NewPlatform: %v", err)
				}
			}
			m, err := paka.New(context.Background(), paka.Config{
				Kind: paka.EUDM, Isolation: cfg.iso, Env: env, Platform: platform,
				Registry: registry, MaxThreads: cfg.threads, EnclaveSizeBytes: cfg.size,
			})
			if err != nil {
				b.Fatalf("paka.New: %v", err)
			}
			defer m.Stop()
			if err := m.ProvisionSubscriber(context.Background(), benchSUPI, benchKey); err != nil {
				b.Fatalf("provision: %v", err)
			}
			client := sbi.NewClient("bench-vnf", env, registry)
			rig := &benchRig{env: env, module: m, client: client}
			rig.invoke(b, paka.EUDM) // warm
			m.ResetRecorders()

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.invoke(b, paka.EUDM)
			}
			b.StopTimer()
			if s := m.TotalLatency().Summarize(); s.N > 0 {
				b.ReportMetric(float64(s.Median.Microseconds()), "virtual-us/LT")
			}
		})
	}
}

// BenchmarkFig9Latency regenerates Fig. 9: per-module functional and
// total latency, container vs SGX. Reported metrics: virtual µs medians.
func BenchmarkFig9Latency(b *testing.B) {
	for _, kind := range paka.Kinds() {
		for _, iso := range []paka.Isolation{paka.Container, paka.SGX} {
			b.Run(fmt.Sprintf("%s-%s", kind, iso), func(b *testing.B) {
				rig := newBenchRig(b, kind, iso)
				rig.invoke(b, kind) // warm
				rig.module.ResetRecorders()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rig.invoke(b, kind)
				}
				b.StopTimer()
				if s := rig.module.FunctionalLatency().Summarize(); s.N > 0 {
					b.ReportMetric(float64(s.Median.Nanoseconds())/1e3, "virtual-us/LF")
				}
				if s := rig.module.TotalLatency().Summarize(); s.N > 0 {
					b.ReportMetric(float64(s.Median.Nanoseconds())/1e3, "virtual-us/LT")
				}
			})
		}
	}
}

// BenchmarkFig10Response regenerates Fig. 10a: the VNF-side stable
// response time per module. Reported metric: virtual µs per response.
func BenchmarkFig10Response(b *testing.B) {
	for _, kind := range paka.Kinds() {
		for _, iso := range []paka.Isolation{paka.Container, paka.SGX} {
			b.Run(fmt.Sprintf("%s-%s", kind, iso), func(b *testing.B) {
				rig := newBenchRig(b, kind, iso)
				rig.invoke(b, kind) // warm: Fig. 10b's initial request
				var total simclock.Cycles
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					total += rig.invoke(b, kind)
				}
				b.StopTimer()
				mean := rig.env.Model.Duration(total / simclock.Cycles(b.N))
				b.ReportMetric(float64(mean.Nanoseconds())/1e3, "virtual-us/RS")
			})
		}
	}
}

// BenchmarkTable3Transitions regenerates Table III's per-registration
// transition census: full UE registrations through an SGX slice, with the
// per-UE EENTER delta as the reported metric (paper: ~90).
func BenchmarkTable3Transitions(b *testing.B) {
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{Isolation: shield5g.SGX, Seed: 1})
	if err != nil {
		b.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()

	// Warm registration.
	sub, err := tb.AddSubscriber(ctx, benchKey, nil)
	if err != nil {
		b.Fatalf("AddSubscriber: %v", err)
	}
	if _, err := tb.Register(ctx, sub); err != nil {
		b.Fatalf("warm Register: %v", err)
	}

	eudm := tb.Slice.Modules[shield5g.EUDM]
	before := eudm.Stats().EENTER
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := tb.AddSubscriber(ctx, benchKey, nil)
		if err != nil {
			b.Fatalf("AddSubscriber: %v", err)
		}
		if _, err := tb.Register(ctx, sub); err != nil {
			b.Fatalf("Register: %v", err)
		}
	}
	b.StopTimer()
	delta := eudm.Stats().EENTER - before
	b.ReportMetric(float64(delta)/float64(b.N), "EENTER/registration")
}

// BenchmarkE2ESessionSetup regenerates the §V-B4 analysis: full UE
// registration + PDU session under each isolation mode. Reported metric:
// virtual ms of session setup (paper: ~62.38 ms under SGX).
func BenchmarkE2ESessionSetup(b *testing.B) {
	for _, iso := range []shield5g.Isolation{shield5g.Monolithic, shield5g.Container, shield5g.SGX} {
		b.Run(iso.String(), func(b *testing.B) {
			ctx := context.Background()
			tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{Isolation: iso, Seed: 1})
			if err != nil {
				b.Fatalf("NewTestbed: %v", err)
			}
			defer tb.Close()
			warm, err := tb.AddSubscriber(ctx, benchKey, nil)
			if err != nil {
				b.Fatalf("AddSubscriber: %v", err)
			}
			if _, err := tb.Register(ctx, warm); err != nil {
				b.Fatalf("warm Register: %v", err)
			}

			var totalVirtual float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub, err := tb.AddSubscriber(ctx, benchKey, nil)
				if err != nil {
					b.Fatalf("AddSubscriber: %v", err)
				}
				var acct simclock.Account
				sctx := simclock.WithAccount(ctx, &acct)
				sess, err := tb.Register(sctx, sub)
				if err != nil {
					b.Fatalf("Register: %v", err)
				}
				if err := sess.EstablishPDUSession(sctx, 1, "internet"); err != nil {
					b.Fatalf("PDU session: %v", err)
				}
				totalVirtual += float64(tb.Slice.Env.Model.Duration(acct.Total()).Milliseconds())
			}
			b.StopTimer()
			b.ReportMetric(totalVirtual/float64(b.N), "virtual-ms/setup")
		})
	}
}
