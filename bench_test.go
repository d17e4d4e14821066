package shield5g_test

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. The simulated testbed measures in deterministic
// virtual time, so each benchmark reports the modelled quantity as a
// custom metric (virtual-us/op, virtual-s/load, ...) alongside the real
// wall-clock ns/op of executing the simulation itself. The Realtime
// benchmarks additionally convert modelled cycles into calibrated
// busy-wait (scale printed per bench) so that wall-clock ordering matches
// the modelled ordering.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"shield5g"
	"shield5g/internal/costmodel"
	"shield5g/internal/experiments"
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

func newBenchRig(b *testing.B, kind paka.ModuleKind, iso paka.Isolation, realizer *costmodel.Realizer) *benchRig {
	b.Helper()
	env := costmodel.NewEnv(nil, 1, realizer)
	registry := sbi.NewRegistry()
	var platform *sgx.Platform
	if iso == paka.SGX {
		var err error
		platform, err = sgx.NewPlatform(sgx.PlatformConfig{Seed: 1, Realizer: realizer})
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
			env := costmodel.NewEnv(nil, 1, nil)
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
			env := costmodel.NewEnv(nil, 1, nil)
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
				rig := newBenchRig(b, kind, iso, nil)
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
				rig := newBenchRig(b, kind, iso, nil)
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

// allocMeter measures heap allocations across a benchmark loop via
// runtime.MemStats deltas — the same window testing's ReportAllocs uses,
// but available to the JSON reports as a per-registration figure.
type allocMeter struct{ start runtime.MemStats }

func (a *allocMeter) begin() { runtime.ReadMemStats(&a.start) }

// end returns (allocs, bytes) per unit over n units.
func (a *allocMeter) end(n int) (float64, float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if n <= 0 {
		return 0, 0
	}
	return float64(ms.Mallocs-a.start.Mallocs) / float64(n),
		float64(ms.TotalAlloc-a.start.TotalAlloc) / float64(n)
}

// parallelRegPoint is one driver mode of BenchmarkRegisterManyParallel,
// exported to BENCH_parallel_registration.json when BENCH_JSON is set.
type parallelRegPoint struct {
	Mode              string  `json:"mode"`
	Parallelism       int     `json:"parallelism"`
	UEs               int     `json:"ues"`
	WallMS            float64 `json:"wall_ms"`
	WallRegsPerSec    float64 `json:"wall_regs_per_sec"`
	VirtualRegsPerSec float64 `json:"virtual_regs_per_sec"`
	AllocsPerReg      float64 `json:"allocs_per_reg"`
	BytesPerReg       float64 `json:"bytes_per_reg"`
}

type parallelRegReport struct {
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Points      []parallelRegPoint `json:"points"`
	SpeedupWall float64            `json:"speedup_wall,omitempty"`
}

var parallelRegState struct {
	sync.Mutex
	report parallelRegReport
}

// recordParallelBench accumulates the sub-benchmark results and, when the
// BENCH_JSON env var names a path, writes the JSON report after each mode
// so a partial run still leaves a valid file.
func recordParallelBench(b *testing.B, p parallelRegPoint) {
	parallelRegState.Lock()
	defer parallelRegState.Unlock()
	r := &parallelRegState.report
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.Points = append(r.Points, p)
	var seq, par float64
	for _, pt := range r.Points {
		if pt.Parallelism == 1 {
			seq = pt.WallMS
		} else if pt.Parallelism > 1 {
			par = pt.WallMS
		}
	}
	if seq > 0 && par > 0 {
		r.SpeedupWall = seq / par
	}
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		b.Fatalf("marshal bench report: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
}

// BenchmarkRegisterManyParallel measures the mass-registration driver's
// wall-clock throughput sequentially and with an 8-worker pool over the
// lock-striped SGX core. On a multicore host the parallel mode's
// regs/s-wall should scale with cores; on a single-core host (GOMAXPROCS
// =1) the two modes are expected to tie. Set BENCH_JSON to a path to dump
// the comparison as JSON.
func BenchmarkRegisterManyParallel(b *testing.B) {
	const ues = 1000
	for _, mode := range []struct {
		name        string
		parallelism int
	}{
		{"sequential", 1},
		{"parallel8", 8},
	} {
		b.Run(fmt.Sprintf("%s-ues%d", mode.name, ues), func(b *testing.B) {
			ctx := context.Background()
			tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{Isolation: shield5g.SGX, Seed: 1})
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

			newUE := func(int) (*shield5g.UE, error) {
				sub, err := tb.AddSubscriber(ctx, benchKey, nil)
				if err != nil {
					return nil, err
				}
				return sub.UE, nil
			}

			var last *shield5g.MassResult
			var meter allocMeter
			b.ReportAllocs()
			meter.begin()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := tb.Slice.GNB.RegisterManyWith(ctx, shield5g.MassOptions{
					N: ues, NewUE: newUE, Parallelism: mode.parallelism,
				})
				if err != nil {
					b.Fatalf("RegisterManyWith: %v", err)
				}
				if res.Failed > 0 {
					b.Fatalf("%d registrations failed: %v", res.Failed, res.FirstErrors)
				}
				last = res
			}
			b.StopTimer()
			allocsPerReg, bytesPerReg := meter.end(b.N * ues)
			b.ReportMetric(last.WallRegsPerSec, "regs/s-wall")
			b.ReportMetric(last.VirtualRegsPerSec, "regs/s-virtual")
			recordParallelBench(b, parallelRegPoint{
				Mode:              mode.name,
				Parallelism:       mode.parallelism,
				UEs:               ues,
				WallMS:            float64(last.Wall.Microseconds()) / 1e3,
				WallRegsPerSec:    last.WallRegsPerSec,
				VirtualRegsPerSec: last.VirtualRegsPerSec,
				AllocsPerReg:      allocsPerReg,
				BytesPerReg:       bytesPerReg,
			})
		})
	}
}

// chaosRegPoint is one mode of BenchmarkRegisterManyChaos, exported to
// BENCH_chaos_registration.json when BENCH_CHAOS_JSON is set.
type chaosRegPoint struct {
	Mode              string  `json:"mode"`
	FaultRate         float64 `json:"fault_rate"`
	UEs               int     `json:"ues"`
	Registered        int     `json:"registered"`
	Attempts          int     `json:"attempts"`
	WallMS            float64 `json:"wall_ms"`
	VirtualRegsPerSec float64 `json:"virtual_regs_per_sec"`
	AllocsPerReg      float64 `json:"allocs_per_reg"`
	BytesPerReg       float64 `json:"bytes_per_reg"`
}

type chaosRegReport struct {
	Points []chaosRegPoint `json:"points"`
	// OverheadPct is the virtual-throughput cost of the armed injector +
	// resilience layer at fault rate 0, relative to the bare invoker chain.
	OverheadPct float64 `json:"resilience_overhead_pct,omitempty"`
}

var chaosRegState struct {
	sync.Mutex
	report chaosRegReport
}

func recordChaosBench(b *testing.B, p chaosRegPoint) {
	chaosRegState.Lock()
	defer chaosRegState.Unlock()
	r := &chaosRegState.report
	r.Points = append(r.Points, p)
	var base, rate0 float64
	for _, pt := range r.Points {
		switch pt.Mode {
		case "baseline":
			base = pt.VirtualRegsPerSec
		case "chaos0.00":
			rate0 = pt.VirtualRegsPerSec
		}
	}
	if base > 0 && rate0 > 0 {
		r.OverheadPct = (base - rate0) / base * 100
		// Virtual throughput is deterministic, so this is a stable
		// acceptance check, not a flaky wall-clock comparison.
		if r.OverheadPct >= 5 {
			b.Errorf("resilience overhead at fault rate 0 is %.2f%%, want < 5%%", r.OverheadPct)
		}
	}
	path := os.Getenv("BENCH_CHAOS_JSON")
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		b.Fatalf("marshal chaos bench report: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
}

// BenchmarkRegisterManyChaos measures mass registration through the
// resilience layer under seeded fault injection: a bare baseline, the
// armed injector at rate 0 (pure instrumentation overhead, asserted < 5%
// on deterministic virtual throughput), and two live fault rates. Set
// BENCH_CHAOS_JSON to a path to dump the comparison as JSON.
func BenchmarkRegisterManyChaos(b *testing.B) {
	const ues = 300
	for _, mode := range []struct {
		name string
		rate float64
		on   bool
	}{
		{"baseline", 0, false},
		{"chaos0.00", 0, true},
		{"chaos0.05", 0.05, true},
		{"chaos0.10", 0.10, true},
	} {
		b.Run(fmt.Sprintf("%s-ues%d", mode.name, ues), func(b *testing.B) {
			ctx := context.Background()
			cfg := shield5g.SliceConfig{Isolation: shield5g.SGX, Seed: 1}
			if mode.on {
				mix := shield5g.DefaultChaosMix(102, mode.rate)
				cfg.Chaos = &mix
			}
			tb, err := shield5g.NewTestbed(ctx, cfg)
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

			var last *shield5g.MassResult
			var meter allocMeter
			b.ReportAllocs()
			meter.begin()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Provision fault-free so every injected fault lands on
				// the registration path under measurement.
				if tb.Slice.Chaos != nil {
					tb.Slice.Chaos.SetArmed(false)
				}
				devices := make([]*shield5g.UE, ues)
				for j := range devices {
					sub, err := tb.AddSubscriber(ctx, benchKey, nil)
					if err != nil {
						b.Fatalf("AddSubscriber: %v", err)
					}
					devices[j] = sub.UE
				}
				if tb.Slice.Chaos != nil {
					tb.Slice.Chaos.SetArmed(true)
				}
				res, err := tb.Slice.GNB.RegisterManyWith(ctx, shield5g.MassOptions{
					N:           ues,
					NewUE:       func(i int) (*shield5g.UE, error) { return devices[i], nil },
					MaxAttempts: 5,
					Chaos:       tb.Slice.Chaos,
				})
				if err != nil {
					b.Fatalf("RegisterManyWith: %v", err)
				}
				if res.Failed > 0 {
					b.Fatalf("%d registrations failed: %v", res.Failed, res.FirstErrors)
				}
				last = res
			}
			b.StopTimer()
			allocsPerReg, bytesPerReg := meter.end(b.N * ues)
			b.ReportMetric(last.VirtualRegsPerSec, "regs/s-virtual")
			b.ReportMetric(float64(last.Attempts-last.Registered), "retries")
			recordChaosBench(b, chaosRegPoint{
				Mode:              mode.name,
				FaultRate:         mode.rate,
				UEs:               ues,
				Registered:        last.Registered,
				Attempts:          last.Attempts,
				WallMS:            float64(last.Wall.Microseconds()) / 1e3,
				VirtualRegsPerSec: last.VirtualRegsPerSec,
				AllocsPerReg:      allocsPerReg,
				BytesPerReg:       bytesPerReg,
			})
		})
	}
}

// batchedRegPoint is one mode of BenchmarkRegisterManyBatched, exported
// to BENCH_batched_transitions.json when BENCH_BATCHED_JSON is set.
type batchedRegPoint struct {
	Mode              string  `json:"mode"`
	BatchSize         int     `json:"batch_size"`
	AVPoolDepth       int     `json:"av_pool_depth"`
	BinarySBI         bool    `json:"binary_sbi"`
	Switchless        bool    `json:"switchless"`
	UEs               int     `json:"ues"`
	Registered        int     `json:"registered"`
	TransPerReg       float64 `json:"transitions_per_reg"`
	EEnterPerReg      float64 `json:"eenter_per_reg"`
	EExitPerReg       float64 `json:"eexit_per_reg"`
	AEXPerReg         float64 `json:"aex_per_reg"`
	OCallsPerReg      float64 `json:"ocalls_per_reg"`
	VirtualRegsPerSec float64 `json:"virtual_regs_per_sec"`
	AllocsPerReg      float64 `json:"allocs_per_reg"`
	// AllocBudget is experiments.FastPathAllocBudget on the points held to
	// it (the full fast path); benchdiff reads it from here.
	AllocBudget   float64 `json:"allocs_per_reg_budget,omitempty"`
	BytesPerReg   float64 `json:"bytes_per_reg"`
	PoolHits      uint64  `json:"pool_hits"`
	PoolMisses    uint64  `json:"pool_misses"`
	PoolRefills   uint64  `json:"pool_refills"`
	PoolPrewarmed uint64  `json:"pool_prewarmed"`
}

type batchedRegReport struct {
	Points []batchedRegPoint `json:"points"`
	// ReductionAtBatch8 is the fractional drop in transitions per
	// registration of the batch-8 keep-alive mode vs the unbatched
	// baseline; the amortization contract requires >= 0.40.
	ReductionAtBatch8 float64 `json:"reduction_at_batch8,omitempty"`
	// ReductionCombined is the same figure for batch-8 plus the AV pool.
	ReductionCombined float64 `json:"reduction_combined,omitempty"`
}

var batchedRegState struct {
	sync.Mutex
	report batchedRegReport
}

func recordBatchedBench(b *testing.B, p batchedRegPoint) {
	batchedRegState.Lock()
	defer batchedRegState.Unlock()
	r := &batchedRegState.report
	r.Points = append(r.Points, p)
	var base, batched, combined float64
	for _, pt := range r.Points {
		switch pt.Mode {
		case "unbatched":
			base = pt.TransPerReg
		case "batched8":
			batched = pt.TransPerReg
		case "batched8+avpool8":
			combined = pt.TransPerReg
		}
	}
	if base > 0 && batched > 0 {
		r.ReductionAtBatch8 = 1 - batched/base
		// The transition census is a deterministic virtual count, so this
		// is a stable acceptance check, not a flaky wall-clock comparison.
		if r.ReductionAtBatch8 < 0.40 {
			b.Errorf("batch-8 keep-alive cut transitions/registration by %.1f%%, want >= 40%%",
				r.ReductionAtBatch8*100)
		}
	}
	if base > 0 && combined > 0 {
		r.ReductionCombined = 1 - combined/base
	}
	path := os.Getenv("BENCH_BATCHED_JSON")
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		b.Fatalf("marshal batched bench report: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
}

// seedAllocsPerReg is the pre-optimization allocation cost of one full UE
// registration through the SGX slice: the allocs/op of
// BenchmarkRegisterManyBatched/unbatched-ues200 at the seed commit
// (111,812 allocs/op over 200 UEs). The allocation-discipline pass —
// cached MILENAGE key schedules, pooled HMAC/SHA-256 states, pooled SBI
// codecs, cached NAS cipher state — must cut this by at least half.
const seedAllocsPerReg = 559.0

// hotpathAllocReport is the allocation ledger of the registration hot
// path, exported to BENCH_hotpath_allocs.json when BENCH_HOTPATH_JSON is
// set. Every point carries allocs/registration and B/registration; the
// report-level reduction figure is the unbatched point vs the recorded
// seed baseline.
type hotpathAllocReport struct {
	BaselineAllocsPerReg float64           `json:"baseline_allocs_per_reg"`
	Points               []batchedRegPoint `json:"points"`
	// ReductionVsSeed is the fractional allocs/registration drop of the
	// unbatched mode vs the seed baseline; the PR contract requires >= 0.50.
	ReductionVsSeed float64 `json:"reduction_vs_seed,omitempty"`
}

var hotpathAllocState struct {
	sync.Mutex
	report hotpathAllocReport
}

// recordHotpathBench asserts the allocation budget on the unbatched mode
// and, when BENCH_HOTPATH_JSON names a path, writes the ledger after each
// mode so a partial run still leaves a valid file.
func recordHotpathBench(b *testing.B, p batchedRegPoint) {
	hotpathAllocState.Lock()
	defer hotpathAllocState.Unlock()
	r := &hotpathAllocState.report
	r.BaselineAllocsPerReg = seedAllocsPerReg
	r.Points = append(r.Points, p)
	if p.Mode == "unbatched" && p.AllocsPerReg > 0 {
		r.ReductionVsSeed = 1 - p.AllocsPerReg/seedAllocsPerReg
		// Counted inside an AllocWindow, so this is a stable acceptance
		// check on real allocator behaviour.
		if r.ReductionVsSeed < 0.50 {
			b.Errorf("hot path allocates %.1f allocs/registration, want <= %.1f (>= 50%% below the seed's %.0f)",
				p.AllocsPerReg, seedAllocsPerReg/2, seedAllocsPerReg)
		}
	}
	if p.AllocBudget > 0 && p.AllocsPerReg >= p.AllocBudget {
		b.Errorf("%s allocates %.2f allocs/registration, want < %.0f", p.Mode, p.AllocsPerReg, p.AllocBudget)
	}
	if p.Switchless {
		// The switchless ring's contract: steady-state registrations cross
		// the boundary with (nearly) zero EENTER/EEXIT, faster than the
		// classic stack. Both are deterministic virtual figures.
		if p.TransPerReg >= 10 {
			b.Errorf("switchless mode pays %.2f transitions/registration, want < 10", p.TransPerReg)
		}
		for _, pt := range r.Points {
			if pt.BinarySBI && !pt.Switchless && p.VirtualRegsPerSec < pt.VirtualRegsPerSec {
				b.Errorf("switchless mode runs at %.4f virtual regs/s, slower than the classic binsbi mode's %.4f",
					p.VirtualRegsPerSec, pt.VirtualRegsPerSec)
			}
		}
	}
	path := os.Getenv("BENCH_HOTPATH_JSON")
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		b.Fatalf("marshal hotpath alloc report: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
}

// BenchmarkRegisterManyBatched measures the boundary-amortization work:
// sequential mass registration unbatched (the seed's connection-per-
// request behaviour), over batch-8 keep-alive sessions, with the UDM's AV
// precomputation pool stacked on top, and finally with the negotiated
// binary SBI codec and a prewarmed pool. The reported
// transitions/registration metric is the EENTER+EEXIT delta summed over
// all three P-AKA modules, a deterministic virtual census; the batch-8
// mode must cut it by at least 40% vs unbatched. Set BENCH_BATCHED_JSON
// to a path to dump the comparison as JSON.
//
// Measurement windows: the first three modes provision subscribers inside
// the measured loop (the seed's accounting, kept bit-compatible so the
// points stay comparable across PRs). The binsbi mode instead provisions
// and prewarms all UEs before the window opens and measures steady-state
// registration alone — the cold-start refill (201 misses for 200 UEs in
// PR 5) is paid by PrewarmAVPool outside the window, which is exactly how
// an operator would deploy the pool.
func BenchmarkRegisterManyBatched(b *testing.B) {
	const ues = 200
	for _, mode := range []struct {
		name       string
		batch      int
		pool       int
		binsbi     bool
		switchless bool
	}{
		{"unbatched", 0, 0, false, false},
		{"batched8", 8, 0, false, false},
		{"batched8+avpool8", 8, 8, false, false},
		{"batched8+avpool8+binsbi", 8, 8, true, false},
		{"batched8+avpool8+binsbi+switchless", 8, 8, true, true},
	} {
		b.Run(fmt.Sprintf("%s-ues%d", mode.name, ues), func(b *testing.B) {
			ctx := context.Background()
			tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{
				Isolation: shield5g.SGX, Seed: 1, AVPoolDepth: mode.pool,
				BinarySBI: mode.binsbi, Switchless: mode.switchless,
			})
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

			newUE := func(int) (*shield5g.UE, error) {
				sub, err := tb.AddSubscriber(ctx, benchKey, nil)
				if err != nil {
					return nil, err
				}
				return sub.UE, nil
			}

			statsBefore := sliceStats(tb)
			var last *shield5g.MassResult
			registered := 0
			var sumAllocs, sumBytes uint64
			var sumStats sgx.StatsSnapshot
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := shield5g.MassOptions{
					N: ues, NewUE: newUE, BatchSize: mode.batch,
					Switchless: mode.switchless,
				}
				if mode.binsbi {
					// Provision and prewarm outside the measured window.
					b.StopTimer()
					devices := make([]*shield5g.UE, ues)
					supis := make([]string, ues)
					for j := range devices {
						sub, err := tb.AddSubscriber(ctx, benchKey, nil)
						if err != nil {
							b.Fatalf("AddSubscriber: %v", err)
						}
						devices[j] = sub.UE
						supis[j] = sub.SUPI.String()
					}
					if err := tb.Slice.PrewarmAVPool(ctx, supis); err != nil {
						b.Fatalf("PrewarmAVPool: %v", err)
					}
					opts.NewUE = func(i int) (*shield5g.UE, error) { return devices[i], nil }
					b.StartTimer()
					statsBefore = sliceStats(tb)
				}
				var res *shield5g.MassResult
				mallocs, bytes, err := experiments.AllocWindow(func() (err error) {
					res, err = tb.Slice.GNB.RegisterManyWith(ctx, opts)
					return err
				})
				if err != nil {
					b.Fatalf("RegisterManyWith: %v", err)
				}
				if res.Failed > 0 {
					b.Fatalf("%d registrations failed: %v", res.Failed, res.FirstErrors)
				}
				sumAllocs += mallocs
				sumBytes += bytes
				if mode.binsbi {
					statsAccum(&sumStats, statsDelta(sliceStats(tb), statsBefore))
				}
				registered += res.Registered
				last = res
			}
			b.StopTimer()
			if !mode.binsbi {
				sumStats = statsDelta(sliceStats(tb), statsBefore)
			}
			n := float64(registered)
			allocsPerReg, bytesPerReg := float64(sumAllocs)/n, float64(sumBytes)/n
			transPerReg := float64(sumStats.EENTER+sumStats.EEXIT) / n
			b.ReportMetric(transPerReg, "transitions/registration")
			b.ReportMetric(last.VirtualRegsPerSec, "regs/s-virtual")
			b.ReportMetric(allocsPerReg, "allocs/registration")
			pool := tb.Slice.UDM.AVPoolStats()
			point := batchedRegPoint{
				Mode:              mode.name,
				BatchSize:         mode.batch,
				AVPoolDepth:       mode.pool,
				BinarySBI:         mode.binsbi,
				Switchless:        mode.switchless,
				UEs:               ues,
				Registered:        registered,
				TransPerReg:       transPerReg,
				EEnterPerReg:      float64(sumStats.EENTER) / n,
				EExitPerReg:       float64(sumStats.EEXIT) / n,
				AEXPerReg:         float64(sumStats.AEX) / n,
				OCallsPerReg:      float64(sumStats.OCALLs) / n,
				VirtualRegsPerSec: last.VirtualRegsPerSec,
				AllocsPerReg:      allocsPerReg,
				BytesPerReg:       bytesPerReg,
				PoolHits:          pool.Hits,
				PoolMisses:        pool.Misses,
				PoolRefills:       pool.Refills,
				PoolPrewarmed:     pool.Prewarmed,
			}
			if mode.binsbi {
				point.AllocBudget = experiments.FastPathAllocBudget
			}
			recordBatchedBench(b, point)
			recordHotpathBench(b, point)
		})
	}
}

// sliceStats sums the enclave counters across every P-AKA module of the
// testbed's slice, so the per-registration report can break the boundary
// cost into its EENTER/EEXIT/AEX/OCALL components.
func sliceStats(tb *shield5g.Testbed) sgx.StatsSnapshot {
	var s sgx.StatsSnapshot
	for _, m := range tb.Slice.Modules {
		statsAccum(&s, m.Stats())
	}
	return s
}

// statsDelta subtracts before from after, field by field.
func statsDelta(after, before sgx.StatsSnapshot) sgx.StatsSnapshot {
	return sgx.StatsSnapshot{
		EENTER:     after.EENTER - before.EENTER,
		EEXIT:      after.EEXIT - before.EEXIT,
		AEX:        after.AEX - before.AEX,
		ERESUME:    after.ERESUME - before.ERESUME,
		ECALLs:     after.ECALLs - before.ECALLs,
		OCALLs:     after.OCALLs - before.OCALLs,
		PageFaults: after.PageFaults - before.PageFaults,
	}
}

// statsAccum adds d into s, field by field.
func statsAccum(s *sgx.StatsSnapshot, d sgx.StatsSnapshot) {
	s.EENTER += d.EENTER
	s.EEXIT += d.EEXIT
	s.AEX += d.AEX
	s.ERESUME += d.ERESUME
	s.ECALLs += d.ECALLs
	s.OCALLs += d.OCALLs
	s.PageFaults += d.PageFaults
}

// BenchmarkRealtimeModuleResponse runs the module request path in
// realtime mode: modelled cycles are converted into calibrated busy-wait
// at 1/20 scale, so wall-clock ns/op exhibits the paper's SGX-vs-container
// ordering directly.
func BenchmarkRealtimeModuleResponse(b *testing.B) {
	const scale = 0.05
	for _, iso := range []paka.Isolation{paka.Container, paka.SGX, paka.SEV} {
		b.Run(fmt.Sprintf("eUDM-%s-scale%.2f", iso, scale), func(b *testing.B) {
			realizer := costmodel.NewRealizer(costmodel.Default(), scale)
			rig := newBenchRig(b, paka.EUDM, iso, realizer)
			rig.invoke(b, paka.EUDM) // warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.invoke(b, paka.EUDM)
			}
		})
	}
}
