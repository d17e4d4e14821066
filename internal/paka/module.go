package paka

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/hmee"
	"shield5g/internal/hmee/gramine"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/metrics"
	"shield5g/internal/sbi"
)

// Config describes one P-AKA module deployment.
type Config struct {
	// Kind selects eUDM, eAUSF or eAMF.
	Kind ModuleKind
	// Isolation is Container, SGX or SEV.
	Isolation Isolation
	// Env supplies the shared cost environment.
	Env *costmodel.Env
	// Platform is the SGX host; required when Isolation is SGX.
	Platform *sgx.Platform
	// SEVHost is the SEV-SNP host; required when Isolation is SEV.
	SEVHost *sev.Platform
	// Registry is where the module's SBI server registers.
	Registry *sbi.Registry

	// EnclaveSizeBytes overrides the 512 MiB default (Fig. 8 sweeps).
	EnclaveSizeBytes uint64
	// MaxThreads overrides the 4-thread default (Fig. 8 sweeps).
	MaxThreads int
	// DisablePreheat turns off sgx.preheat_enclave.
	DisablePreheat bool
	// Exitless enables Gramine's switchless OCALLs (§V-B7 ablation;
	// the paper flags the feature as not production-ready). SGX only.
	Exitless bool
	// Switchless enables the switchless ECALL submission ring: a
	// dedicated in-enclave dispatcher thread pins one TCS and serves
	// shared-memory submissions, so steady-state requests cross with
	// zero EENTER/EEXIT. Changes the enclave measurement (DESIGN.md
	// §15) and bumps the manifest thread count for the dispatcher TCS.
	// Every request to the module, batch refills included, then crosses
	// through the ring. SGX only.
	Switchless bool
	// UserLevelTCP links an mTCP-style user-level network stack into
	// the module, collapsing the per-request syscall census at the cost
	// of a larger TCB (§V-B7 ablation).
	UserLevelTCP bool
	// ReserveBatchTCS keeps one TCS slot free beyond the resident
	// threads so batch ECALLs (hmee.Entry: the eUDM AV pool refill) can
	// enter the enclave while the server threads stay resident. SGX
	// only; bumps the manifest thread count to HelperThreads+2.
	ReserveBatchTCS bool
	// SignKey signs the GSC image; New generates one when nil.
	SignKey ed25519.PrivateKey
	// Replica is the module's index in a sharded deployment. It names the
	// SBI service (sbi.ReplicaName: "eudm-paka", "eudm-paka-r1", ...), so
	// every replica of a kind registers its own server, carries its own
	// overload meter, and is addressed by its own shard's VNFs. The
	// manifest/image identity stays kind-based: replicas run the same
	// operator-signed image.
	Replica int
}

// Module is one deployed P-AKA microservice.
type Module struct {
	kind      ModuleKind
	isolation Isolation
	profile   Profile
	env       *costmodel.Env
	server    *sbi.Server
	registry  *sbi.Registry

	// cfg is retained so Restart can redeploy an identical runtime (same
	// manifest, same sign key, same enclave measurement).
	cfg Config

	// rtMu guards the runtime pointer, which Restart swaps while requests
	// may be in flight; restartMu single-files restarts themselves.
	rtMu      sync.RWMutex
	runtime   Runtime
	restartMu sync.Mutex
	restarts  atomic.Uint64

	// Latency recorders feeding the experiments: the module-side
	// functional (L_F) and total (L_T) times of the last LatencyWindow
	// served requests.
	functional *metrics.Recorder
	total      *metrics.Recorder

	// sessMu guards the per-connection keep-alive sessions (session.go).
	sessMu   sync.Mutex
	sessions map[uint64]*moduleSession
}

// New deploys a P-AKA module under the configured isolation mode, its load
// cost charged to ctx's account.
func New(ctx context.Context, cfg Config) (*Module, error) {
	profile, ok := Profiles()[cfg.Kind]
	if !ok {
		return nil, fmt.Errorf("paka: unknown module kind %d", cfg.Kind)
	}
	if cfg.Env == nil {
		return nil, errors.New("paka: Config.Env is required")
	}
	if cfg.Registry == nil {
		return nil, errors.New("paka: Config.Registry is required")
	}

	// Resolve the sign key up front so a crash-restart rebuilds the
	// byte-identical shielded image instead of re-keying.
	if cfg.Isolation == SGX && cfg.SignKey == nil {
		var err error
		_, cfg.SignKey, err = ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("paka: generate GSC sign key: %w", err)
		}
	}

	rt, err := launch(ctx, cfg, profile)
	if err != nil {
		return nil, err
	}
	m := &Module{
		kind:       cfg.Kind,
		isolation:  cfg.Isolation,
		profile:    profile,
		env:        cfg.Env,
		registry:   cfg.Registry,
		cfg:        cfg,
		runtime:    rt,
		functional: metrics.NewWindow(LatencyWindow),
		total:      metrics.NewWindow(LatencyWindow),
	}

	// The module's own sbi.Server carries no env: all server-side costs
	// are modelled by the runtime's request path, which would otherwise
	// be double-charged.
	m.server = sbi.NewServer(sbi.ReplicaName(cfg.Kind.ServiceName(), cfg.Replica), nil)
	m.registerEndpoints()
	if err := cfg.Registry.Register(m.server); err != nil {
		m.runtime.Shutdown()
		return nil, err
	}
	return m, nil
}

// shieldedImage builds the module's GSC image from its config, signed
// with cfg.SignKey (New resolves it). How a request then crosses the
// enclave boundary is gramine's decision, not this layer's.
func shieldedImage(cfg Config, profile Profile) (*gramine.ShieldedImage, error) {
	manifest := gramine.DefaultManifest("/app/" + cfg.Kind.ServiceName())
	if cfg.EnclaveSizeBytes != 0 {
		manifest.EnclaveSizeBytes = cfg.EnclaveSizeBytes
	}
	if cfg.MaxThreads != 0 {
		manifest.MaxThreads = cfg.MaxThreads
	}
	manifest.PreheatEnclave = !cfg.DisablePreheat
	manifest.Exitless = cfg.Exitless
	manifest.SwitchlessECalls = cfg.Switchless
	if cfg.Exitless || cfg.ReserveBatchTCS || cfg.Switchless {
		// One TCS beyond the resident process and helper threads: the
		// untrusted exitless helper's, the batch ECALL's, or the ring
		// dispatcher's. A ring module never takes a batch ECALL — its
		// refills ride the ring — so the three never need two slots.
		manifest.MaxThreads = max(manifest.MaxThreads, gramine.HelperThreads+2)
	}
	si, err := gramine.BuildShielded(moduleImage(cfg.Kind, profile, cfg.UserLevelTCP), manifest, cfg.SignKey)
	if err != nil {
		return nil, fmt.Errorf("paka: GSC build: %w", err)
	}
	return si, nil
}

// moduleImage synthesises the module's container image: the paper's images
// are OAI-derived Ubuntu images of a couple of gigabytes whose contents
// GSC measures as trusted files. Linking the user-level TCP stack adds its
// libraries to the image — and therefore to the measured TCB.
func moduleImage(kind ModuleKind, profile Profile, userTCP bool) gramine.ContainerImage {
	total := profile.ImageBytes
	img := gramine.ContainerImage{
		Name: kind.ServiceName() + ":v1.5.0",
		Files: []gramine.ImageFile{
			{Path: "/usr/lib/x86_64-linux-gnu/libc.so.6", Size: total * 40 / 100},
			{Path: "/usr/lib/x86_64-linux-gnu/libssl.so.3", Size: total * 25 / 100},
			{Path: "/usr/lib/x86_64-linux-gnu/libpistache.so", Size: total * 15 / 100},
			{Path: "/app/" + kind.ServiceName(), Size: total * 10 / 100},
			{Path: "/usr/share/ca-certificates/operator.pem", Size: total * 10 / 100},
			{Path: "/proc/self/status", Size: 1}, // excluded by GSC
		},
	}
	if userTCP {
		img.Files = append(img.Files,
			gramine.ImageFile{Path: "/usr/lib/x86_64-linux-gnu/libmtcp.so", Size: 24_000_000},
			gramine.ImageFile{Path: "/usr/lib/x86_64-linux-gnu/libdpdk.so", Size: 36_000_000},
		)
	}
	return img
}

// rt returns the current runtime; requests that grabbed an older runtime
// across a Restart fail with a transient error and are retried.
func (m *Module) rt() Runtime {
	m.rtMu.RLock()
	defer m.rtMu.RUnlock()
	return m.runtime
}

// registerEndpoints wires the kind-specific handlers.
func (m *Module) registerEndpoints() {
	switch m.kind {
	case EUDM:
		m.server.HandleDual(PathUDMGenerateAV, endpoint(m, m.generateAV))
		m.server.HandleDual(PathUDMResync, endpoint(m, m.resync))
		// The batch endpoint is a maintenance path (the AV pool refill),
		// not a served request: it bypasses the endpoint wrapper so the
		// L_F/L_T recorders keep measuring only the paper's request path.
		m.server.HandleDual(PathUDMGenerateAVBatch, sbi.BinHandlerInto(m.GenerateAVBatch))
	case EAUSF:
		m.server.HandleDual(PathAUSFDeriveSE, endpoint(m, func(_ Exec, req *AUSFDeriveSERequest, resp *AUSFDeriveSEResponse) error {
			return avProblem(deriveSE(req, resp))
		}))
	case EAMF:
		m.server.HandleDual(PathAMFDeriveKAMF, endpoint(m, func(_ Exec, req *AMFDeriveKAMFRequest, resp *AMFDeriveKAMFResponse) error {
			return avProblem(deriveKAMF(req, resp))
		}))
	}
}

// endpointCall is one served request's Handler: its state — the decoded
// request and the response fn fills included — bound in a pooled struct
// that travels as itself from here through the runtime to the enclave
// crossing. A per-call closure would capture ctx, body and the out
// variable on the heap every request, and a returned response would be
// one more allocation.
//
// The request's decoded fields are copied strings, in-place fixed-width
// values or zero-copy views into the loaned body, and nothing below fn
// retains the struct. The response is encoded before the call returns.
// The whole call is zeroed before going back to its pool, so a partial
// decode cannot leak into the next request and no K_AUSF, K_SEAF or K_AMF
// stays in pooled memory (hashpool.PutHMAC's scrub rule).
type endpointCall[Req, Resp any] struct {
	m    *Module
	ctx  context.Context
	body []byte
	fn   func(ex Exec, req *Req, resp *Resp) error
	req  Req
	resp Resp
	out  []byte
}

// Run implements Handler.
//
//shieldlint:hotpath
func (c *endpointCall[Req, Resp]) Run(ex Exec) error {
	c.m.chargeFunction(c.ctx, ex)
	if err := sbi.DecodeBody(c.body, &c.req); err != nil {
		return sbi.Problem(400, "Bad Request", "MANDATORY_IE_INCORRECT", "decode: %v", err)
	}
	if err := c.fn(ex, &c.req, &c.resp); err != nil {
		return err
	}
	var err error
	c.out, err = sbi.MarshalBodyLike(c.body, &c.resp)
	return err
}

// chargeFunction charges one execution of the module's AKA function set:
// its calibrated functional cost, drawn from ctx's jitter stream, and the
// heap it touches.
//
//shieldlint:hotpath
func (m *Module) chargeFunction(ctx context.Context, ex Exec) {
	fn := m.env.JitterFor(ctx).LogNormal(m.profile.FnCycles, m.profile.FnSigma)
	if m.isolation == SGX {
		fn += m.profile.SGXExtraCycles
	}
	ex.Compute(fn)
	ex.Touch(m.profile.HeapBytes)
}

// endpoint adapts a typed module function, which fills the zeroed
// response it is handed, into the served-request path: the runtime's
// modelled request walk and the module's calibrated functional cost
// around it, the request decoded from and the response encoded in
// whichever format the body arrived in, the L_F/L_T windows recorded.
// Everything per-endpoint (the call pool) is built here, once, at
// registration.
func endpoint[Req, Resp any](m *Module, fn func(ex Exec, req *Req, resp *Resp) error) sbi.HandlerFunc {
	calls := sync.Pool{New: func() any { return new(endpointCall[Req, Resp]) }}
	//shieldlint:hotpath
	return func(ctx context.Context, body []byte) ([]byte, error) {
		c := calls.Get().(*endpointCall[Req, Resp])
		c.m, c.ctx, c.body, c.fn = m, ctx, body, fn
		bd, err := m.serve(ctx, m.profile.InBytes, m.profile.OutBytes, c)
		out := c.out
		*c = endpointCall[Req, Resp]{}
		calls.Put(c)
		if err != nil {
			return nil, err
		}
		model := m.env.Model
		m.functional.Add(model.Duration(bd.Functional))
		m.total.Add(model.Duration(bd.Total))
		return out, nil
	}
}

func (m *Module) generateAV(ex Exec, req *UDMGenerateAVRequest, resp *UDMGenerateAVResponse) error {
	var c milenage.Cipher
	if err := expandKey(ex, req.SUPI, req.OPc, &c); err != nil {
		return err
	}
	return avProblem(mintInto(&c, req, resp))
}

func (m *Module) resync(ex Exec, req *UDMResyncRequest, resp *UDMResyncResponse) error {
	var c milenage.Cipher
	if err := expandKey(ex, req.SUPI, req.OPc, &c); err != nil {
		return err
	}
	if err := resync(&c, req, resp); err != nil {
		return sbi.Problem(403, "Forbidden", "SYNC_FAILURE", "%v", err)
	}
	return nil
}

// expandKey loads supi's K inside the runtime and expands its MILENAGE
// schedule into c, which the caller declares for the one procedure it runs
// and drops with it: the eUDM keeps no schedule between requests. The copy
// of K the runtime handed out is cleared as soon as the schedule exists,
// so it does not linger in freed memory either.
func expandKey(ex Exec, supi string, opc []byte, c *milenage.Cipher) error {
	var k [milenage.KeyLen]byte
	if !ex.LoadSecret(supi, &k) {
		return sbi.Problem(404, "Not Found", "USER_NOT_FOUND", "%v: %s", ErrUnknownSubscriber, supi)
	}
	err := c.Init(k[:], opc)
	clear(k[:])
	if err != nil {
		return sbi.Problem(400, "Bad Request", "AV_GENERATION_PROBLEM", "paka: eUDM: %v", err)
	}
	return nil
}

// avProblem maps a derivation failure onto its 400 ProblemDetails.
func avProblem(err error) error {
	if err != nil {
		return sbi.Problem(400, "Bad Request", "AV_GENERATION_PROBLEM", "%v", err)
	}
	return nil
}

// GenerateAVBatch generates one HE AV per item into resp inside a single
// boundary crossing: K× the AKA crypto, memory touches and shield bytes,
// but — under SGX — exactly one EENTER/EEXIT transition pair instead of
// the ~90 a cold served request costs. This is the enclave half of the
// eUDM AV precomputation pool; a classic module needs
// Config.ReserveBatchTCS so the batch entry finds a free TCS slot (a ring
// module submits the batch through its ring instead). Only meaningful for
// eUDM.
func (m *Module) GenerateAVBatch(ctx context.Context, req *UDMGenerateAVBatchRequest, resp *UDMGenerateAVBatchResponse) error {
	if m.kind != EUDM {
		return fmt.Errorf("paka: %s does not generate authentication vectors", m.kind)
	}
	k := len(req.Items)
	if k == 0 {
		return nil
	}
	// The vectors hold their fields in place: the whole refill is this
	// one slice.
	resp.Vectors = make([]UDMGenerateAVResponse, k)
	_, err := m.rt().Cross(ctx, hmee.Entry, k*m.profile.InBytes, k*m.profile.OutBytes, hmee.HandlerFunc(func(ex Exec) error {
		// A refill is one SUPI's: its schedule is expanded once, for the
		// first item, and serves every item after it that names the same
		// subscriber and OPc.
		var c milenage.Cipher
		for i := range req.Items {
			item := &req.Items[i]
			m.chargeFunction(ctx, ex)
			if i == 0 || item.SUPI != req.Items[i-1].SUPI || !bytes.Equal(item.OPc, req.Items[i-1].OPc) {
				if err := expandKey(ex, item.SUPI, item.OPc, &c); err != nil {
					return err
				}
			}
			if err := mintInto(&c, item, &resp.Vectors[i]); err != nil {
				return sbi.Problem(400, "Bad Request", "AV_GENERATION_PROBLEM", "%v", err)
			}
		}
		return nil
	}))
	return err
}

// ProvisionSubscriber installs a subscriber's long-term key into the
// module's memory — inside the enclave when SGX-isolated, so the key
// never appears in attacker-visible memory afterwards. Only meaningful
// for the eUDM module.
//
// Under SGX the key is first sealed to a file on the host, the platform's
// one file per SUPI for the enclave's identity: the module seals it, and
// every enclave of that identity whose key store misses the SUPI later —
// this one after a restart, another replica the SUPI was rebalanced to —
// opens that file in place instead of receiving K again. It is sealed
// before it is stored, so a miss racing this call can only restore the new
// key or lose to it. Guest processes keep no file: their keys die with the
// process and come back through the UDM re-provisioning path.
func (m *Module) ProvisionSubscriber(ctx context.Context, supi string, k []byte) error {
	if m.kind != EUDM {
		return fmt.Errorf("paka: %s does not hold subscriber keys", m.kind)
	}
	if len(k) != milenage.KeyLen {
		return fmt.Errorf("paka: provision %s: key length %d, want %d", supi, len(k), milenage.KeyLen)
	}
	if enc := m.Enclave(); enc != nil {
		if err := enc.SealBackup(supi, k); err != nil {
			return fmt.Errorf("paka: seal backup for %s: %w", supi, err)
		}
	}
	// The store itself is maintenance: a crossing of no phase, outside
	// any request.
	_, err := m.rt().Cross(ctx, 0, 0, 0, hmee.HandlerFunc(func(ex Exec) error {
		ex.StoreSecret(supi, [milenage.KeyLen]byte(k))
		return nil
	}))
	if err != nil {
		return fmt.Errorf("paka: provision %s: %w", supi, err)
	}
	return nil
}

// EvictSubscriber drops supi's key from the module's key store, as
// maintenance: a crossing of no phase. Under SGX the SUPI's sealed file
// stays, and is what a later miss restores. Only meaningful for the eUDM
// module.
func (m *Module) EvictSubscriber(ctx context.Context, supi string) error {
	if m.kind != EUDM {
		return fmt.Errorf("paka: %s does not hold subscriber keys", m.kind)
	}
	_, err := m.rt().Cross(ctx, 0, 0, 0, hmee.HandlerFunc(func(ex Exec) error {
		ex.DeleteSecret(supi)
		return nil
	}))
	if err != nil {
		return fmt.Errorf("paka: evict %s: %w", supi, err)
	}
	return nil
}

// MemoryDump is the privileged attacker's view of the module's key store
// (the Key Issue 7 memory-introspection scenario), one region per SUPI:
// for a plain container it yields the plaintext keys; for an SGX module
// MEE ciphertext, for a confidential VM SEV ciphertext.
func (m *Module) MemoryDump() map[string][]byte { return m.rt().Introspect() }

// Kind reports the module kind.
func (m *Module) Kind() ModuleKind { return m.kind }

// Isolation reports the module's deployment mode.
func (m *Module) Isolation() Isolation { return m.isolation }

// Profile returns the module's calibrated profile.
func (m *Module) Profile() Profile { return m.profile }

// ServiceName is the module's SBI service name (its replica's, see
// Config.Replica).
func (m *Module) ServiceName() string { return m.server.Name() }

// LoadDuration is the modelled deployment time (Fig. 7 when SGX).
func (m *Module) LoadDuration() time.Duration { return m.rt().LoadDuration() }

// Stats snapshots the module's SGX counters (zero for a module without an
// enclave: a container or a confidential VM).
func (m *Module) Stats() sgx.StatsSnapshot {
	if e := m.Enclave(); e != nil {
		return e.Stats()
	}
	return sgx.StatsSnapshot{}
}

// AccrueUptime models the module staying deployed for d of virtual time.
func (m *Module) AccrueUptime(d time.Duration) { m.rt().AccrueUptime(d) }

// Warm reports whether the module has served its first request.
func (m *Module) Warm() bool { return m.rt().Warm() }

// HostTCBBytes approximates the host software a non-enclave deployment
// must additionally trust: kernel, container engine and system services.
// Used for the TCB comparison in the optimization ablation.
const HostTCBBytes = 4 << 30

// TCBBytes reports the module's trusted computing base: for SGX, the bytes
// measured into the enclave; for SEV, the image plus the guest stack; for a
// plain container, the image plus the entire host software stack that can
// read its memory.
func (m *Module) TCBBytes() uint64 {
	if rt, ok := m.rt().(interface{ TCBBytes() uint64 }); ok {
		return rt.TCBBytes()
	}
	return m.profile.ImageBytes + HostTCBBytes
}

// Evidence is the module's attestation evidence over nonce: its enclave's
// quote under SGX, its VM's SNP report under SEV. A container has none.
func (m *Module) Evidence(nonce [64]byte) (hmee.Evidence, error) {
	switch rt := m.rt().(type) {
	case *gramine.Instance:
		return rt.Enclave().GenerateQuote(nonce)
	case *sev.Machine:
		return rt.GenerateReport(nonce)
	}
	return hmee.Evidence{}, fmt.Errorf("paka: %s under %s produces no attestation evidence", m.kind, m.isolation)
}

// instance is the module's shielded container; nil when not SGX-isolated.
func (m *Module) instance() *gramine.Instance {
	inst, _ := m.rt().(*gramine.Instance)
	return inst
}

// Enclave exposes the module's enclave for sealing/attestation; nil when
// not SGX-isolated.
func (m *Module) Enclave() *sgx.Enclave {
	if inst := m.instance(); inst != nil {
		return inst.Enclave()
	}
	return nil
}

// WithSwitchless has no effect and returns ctx: a module deployed with
// Config.Switchless serves every request through its ring, unmarked. It
// stays only because bench/ still calls it, and leaves with ROADMAP.md's
// item 5 (the bench/ re-grounding).
func WithSwitchless(ctx context.Context) context.Context { return ctx }

// RingStats snapshots the switchless ring counters (zero-valued when no
// ring is attached).
func (m *Module) RingStats() sgx.RingStats {
	if inst := m.instance(); inst != nil {
		return inst.RingStats()
	}
	return sgx.RingStats{}
}

// LatencyWindow is how many samples each running latency recorder keeps:
// a module's L_F and L_T and a VNF's R_S. It is twice the largest window
// an experiment summarises (500 warm requests), rounded up to a power of
// two, so every summary still covers its whole window while a recorder on
// a long-running core holds 8 KiB however much traffic it has served.
const LatencyWindow = 1024

// FunctionalLatency returns the recorder of module-side L_F samples.
func (m *Module) FunctionalLatency() *metrics.Recorder { return m.functional }

// TotalLatency returns the recorder of module-side L_T samples.
func (m *Module) TotalLatency() *metrics.Recorder { return m.total }

// ResetRecorders clears the latency recorders between experiment phases.
func (m *Module) ResetRecorders() {
	m.functional.Reset()
	m.total.Reset()
}

// Stop deregisters and shuts the module down.
func (m *Module) Stop() {
	m.registry.Deregister(m.server.Name())
	m.dropSessions()
	m.rt().Shutdown()
}

// Restarts reports how many crash-restarts the module has survived.
func (m *Module) Restarts() uint64 { return m.restarts.Load() }

// Restart models a whole-NF crash and recovery: the current runtime is
// torn down (for SGX the enclave is destroyed, flushing every in-enclave
// secret) and an identical one is redeployed from the retained Config,
// re-paying the full load cost — under SGX the paper's Fig. 7 0.96–0.99 min
// enclave load penalty, under SEV the measured boot — against ctx's account
// in virtual time. Every runtime comes back with an empty key store, so a
// restart costs the same however many subscribers there are. An SGX module
// refills it one SUPI at a time, on first use, from the platform's sealed
// files (same measurement on the same platform ⇒ same sealing key); guest
// processes — a plain container, a confidential VM — rely on the UDM's
// re-provisioning path. Requests in flight on the old runtime fail
// transiently and are retried by the SBI resilience layer.
func (m *Module) Restart(ctx context.Context) error {
	m.restartMu.Lock()
	defer m.restartMu.Unlock()

	m.rt().Shutdown()

	fresh, err := launch(ctx, m.cfg, m.profile)
	if err != nil {
		return fmt.Errorf("paka: restart %s: %w", m.kind, err)
	}

	m.rtMu.Lock()
	m.runtime = fresh
	m.rtMu.Unlock()
	// Keep-alive sessions died with the old runtime; serve() also drops
	// them lazily on runtime mismatch, this just frees the map eagerly.
	m.dropSessions()
	m.restarts.Add(1)
	return nil
}
