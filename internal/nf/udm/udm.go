// Package udm implements the Unified Data Management function: SUCI
// de-concealment with the home-network private key, authentication-vector
// orchestration against the UDR, and offload of the sensitive AKA
// cryptography to its eUDM P-AKA module, exactly as in the paper's
// modified message flow (Fig. 5 steps 2-3).
package udm

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/udr"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

// Service identity.
const (
	ServiceName = "udm"
	NFType      = "UDM"
)

// SBI endpoint paths.
const (
	PathGenerateAuthData = "/nudm-ueau/v1/generate-auth-data"
	PathResync           = "/nudm-ueau/v1/resync"
)

// suciDeconcealCycles is the X25519 + AES-CTR + HMAC cost of Profile A
// de-concealment on the testbed CPU.
const suciDeconcealCycles = 240_000

// GenerateAuthDataRequest asks the UDM (home network) for a fresh HE AV.
type GenerateAuthDataRequest struct {
	SUCI               *suci.SUCI `json:"suci,omitempty"`
	SUPI               string     `json:"supi,omitempty"` // re-auth with known identity
	ServingNetworkName string     `json:"serving_network_name"`

	// kept is the SUCI the UDM's served pair decodes into (see Scrub).
	kept codec.Kept[suci.SUCI]
}

// GenerateAuthDataResponse is the HE AV plus the de-concealed SUPI.
type GenerateAuthDataResponse struct {
	SUPI     codec.SUPI    `json:"supi"`
	RAND     codec.Bytes16 `json:"rand"`
	AUTN     codec.Bytes16 `json:"autn"`
	XRESStar codec.Bytes16 `json:"xres_star"`
	KAUSF    codec.Bytes32 `json:"kausf"`
}

// ResyncRequest reports a UE synchronisation failure (AUTS) for SQN
// recovery.
type ResyncRequest struct {
	SUPI codec.SUPI `json:"supi"`
	RAND []byte     `json:"rand"`
	AUTS []byte     `json:"auts"`
}

// Empty is an empty response body.
type Empty struct{}

// The UDM's operations.
var (
	generateAuthData = sbi.Endpoint[GenerateAuthDataRequest, GenerateAuthDataResponse]{Path: PathGenerateAuthData}
	resync           = sbi.Endpoint[ResyncRequest, Empty]{Path: PathResync}
)

// Config wires a UDM instance.
type Config struct {
	Env *costmodel.Env
	// Registry hosts the UDM's SBI server.
	Registry *sbi.Registry
	// Invoker reaches the UDR and the NRF.
	Invoker sbi.Invoker
	// Functions is the AKA execution environment, the eUDM module.
	Functions *paka.Remote
	// HomeNetworkKey de-conceals SUCIs.
	HomeNetworkKey *suci.HomeNetworkKey
	// HMEE marks this instance as running in a higher trust domain for
	// NRF discovery.
	HMEE bool
	// Entropy overrides RAND generation (tests); nil selects crypto/rand.
	Entropy io.Reader
	// Reprovision, when set, restores a subscriber's long-term key into
	// the AKA execution environment (deploy points it at a guest eUDM
	// module, attested first, never an SGX one). It is the path for an
	// execution environment that keeps no sealed backup and misses the
	// key: a crash-restart emptied its store, or a rebalance routed the
	// SUPI to it.
	Reprovision func(ctx context.Context, supi codec.SUPI, k []byte) error
	// AVPoolDepth enables the AV precomputation pool: up to this many
	// vectors are banked per SUPI, refilled AVPoolDepth at a time so the
	// enclave boundary is crossed once per batch instead of once per
	// authentication — except a SUPI's first miss, which mints
	// min(2, AVPoolDepth): first contact banks one. 0 disables the pool
	// (the seed-identical path). PrewarmAVPool fills rings ahead of first
	// contact.
	AVPoolDepth int
	// Replica is this instance's index in a sharded deployment. It names
	// the SBI service (sbi.ReplicaName: "udm", "udm-r1", ...) and the NRF
	// instance ("udm-1", "udm-r1-1", ...), so replicas run side by side,
	// each with its own server, AV pool, and overload meter.
	Replica int
}

// UDM is the data-management VNF.
type UDM struct {
	env         *costmodel.Env
	server      *sbi.Server
	udr         *udr.Client
	fns         *paka.Remote
	hnKey       *suci.HomeNetworkKey
	entropy     io.Reader
	reprovision func(ctx context.Context, supi codec.SUPI, k []byte) error
	pool        *avPool

	reprovisions atomic.Uint64
}

// New creates a UDM, registers its SBI server and announces it to the NRF.
func New(ctx context.Context, cfg Config) (*UDM, error) {
	if cfg.Env == nil || cfg.Registry == nil || cfg.Invoker == nil {
		return nil, fmt.Errorf("udm: Env, Registry and Invoker are required")
	}
	if cfg.Functions == nil {
		return nil, fmt.Errorf("udm: Functions (AKA execution environment) is required")
	}
	if cfg.HomeNetworkKey == nil {
		return nil, fmt.Errorf("udm: HomeNetworkKey is required")
	}
	entropy := cfg.Entropy
	if entropy == nil {
		entropy = rand.Reader
	}
	service := sbi.ReplicaName(ServiceName, cfg.Replica)
	u := &UDM{
		env:         cfg.Env,
		server:      sbi.NewServer(service, cfg.Env),
		udr:         udr.NewClient(cfg.Invoker),
		fns:         cfg.Functions,
		hnKey:       cfg.HomeNetworkKey,
		entropy:     entropy,
		reprovision: cfg.Reprovision,
	}
	if cfg.AVPoolDepth > 0 {
		u.pool = newAVPool(cfg.AVPoolDepth)
	}
	generateAuthData.Serve(u.server, u.handleGenerateAuthData)
	resync.Serve(u.server, u.handleResync)
	if err := cfg.Registry.Register(u.server); err != nil {
		return nil, err
	}
	if err := nrf.NewClient(cfg.Invoker).Register(ctx, nrf.NFProfile{
		InstanceID: service + "-1", NFType: NFType, Service: service, HMEE: cfg.HMEE,
	}); err != nil {
		return nil, fmt.Errorf("udm: NRF registration: %w", err)
	}
	return u, nil
}

func (u *UDM) handleGenerateAuthData(ctx context.Context, req *GenerateAuthDataRequest, resp *GenerateAuthDataResponse) error {
	// The request's SUPI is text; it is parsed once, and the pool, the UDR,
	// the eUDM and the response carry the value, as de-concealment returns
	// it.
	supi, err := codec.ParseSUPI(req.SUPI)
	if err != nil {
		return sbi.Problem(400, "Bad Request", "MANDATORY_IE_INCORRECT", "%v", err)
	}
	if supi == (codec.SUPI{}) {
		switch {
		case req.SUCI == nil:
			return sbi.Problem(400, "Bad Request", "MANDATORY_IE_MISSING", "SUCI or SUPI required")
		case req.SUCI.Scheme == suci.SchemeNull:
			// Null protection scheme (test networks): no deconcealment.
			supi, err = req.SUCI.NullSUPI()
		default:
			u.env.Charge(ctx, suciDeconcealCycles)
			supi, err = u.hnKey.Deconceal(req.SUCI)
		}
		if err != nil {
			return sbi.Problem(403, "Forbidden", "DECONCEALMENT_FAILURE", "%v", err)
		}
	}
	if req.ServingNetworkName == "" {
		return sbi.Problem(400, "Bad Request", "MANDATORY_IE_MISSING", "serving network name required")
	}

	var av paka.UDMGenerateAVResponse
	if u.pool != nil {
		err = u.pooledAV(ctx, supi, req.ServingNetworkName, &av)
	} else {
		err = u.freshAV(ctx, supi, req.SUPI, req.ServingNetworkName, &av)
	}
	if err != nil {
		return err
	}
	resp.SUPI = supi
	resp.RAND, resp.AUTN, resp.XRESStar, resp.KAUSF = av.RAND, av.AUTN, av.XRESStar, av.KAUSF
	return nil
}

// avRequest mints the unpooled path's one enclave input: it advances the
// subscriber's SQN in the UDR and draws a fresh RAND, as a refill does for
// each of its items (avRequestBatch). Its UDR read and its eUDM request
// carry the SUPI as text: the text the request arrived with, or, after
// de-concealment (text is ""), the value formatted here.
func (u *UDM) avRequest(ctx context.Context, supi codec.SUPI, text, snn string) (paka.UDMGenerateAVRequest, error) {
	if text == "" {
		text = supi.String()
	}
	auth, err := u.udr.NextAuth(ctx, text)
	if err != nil {
		return paka.UDMGenerateAVRequest{}, err
	}
	randBytes := make([]byte, 16)
	if _, err := io.ReadFull(u.entropy, randBytes); err != nil {
		return paka.UDMGenerateAVRequest{}, sbi.Problem(500, "Internal Server Error", sbi.CauseSystem, "RAND generation: %v", err)
	}
	return paka.UDMGenerateAVRequest{
		SUPI:  text,
		OPc:   auth.OPc,
		RAND:  randBytes,
		SQN:   auth.SQN,
		AMFID: auth.AMFField,
		SNN:   snn,
	}, nil
}

// generateAV invokes the execution environment for a single vector, with
// the reprovision-on-lost-key retry.
func (u *UDM) generateAV(ctx context.Context, avReq *paka.UDMGenerateAVRequest) (paka.UDMGenerateAVResponse, error) {
	av, err := u.fns.GenerateAV(ctx, avReq)
	if err != nil && u.reprovision != nil && sbi.HasCause(err, sbi.CauseUserNotFound) {
		// Graceful degradation: the execution environment misses the key
		// (a guest keeps no sealed backup: its crash-restart emptied the
		// store, or a rebalance routed the SUPI here). Re-fetch the
		// long-term key from the UDR, push it in, and retry once.
		// The text is the UDM's own, written from a parsed value.
		supi, _ := codec.ParseSUPI(avReq.SUPI)
		if sub, gerr := u.udr.Get(ctx, supi); gerr == nil {
			if perr := u.reprovision(ctx, supi, sub.K); perr == nil {
				u.reprovisions.Add(1)
				av, err = u.fns.GenerateAV(ctx, avReq)
			}
		}
	}
	return av, err
}

// freshAV is the unpooled path: one SQN advance, one RAND, one crossing,
// the vector written into av.
func (u *UDM) freshAV(ctx context.Context, supi codec.SUPI, text, snn string, av *paka.UDMGenerateAVResponse) error {
	avReq, err := u.avRequest(ctx, supi, text, snn)
	if err != nil {
		return err
	}
	*av, err = u.generateAV(ctx, &avReq)
	return err
}

// refill is one AV pool refill's scratch: the RAND backing and the items
// of its batch. The batch is copied into the eUDM call's pooled pair and
// the vectors come back by value, so nothing holds either once the refill
// is banked; the items are cleared before the scratch goes back to its
// pool, because they hold views of the UDR's OPc.
type refill struct {
	rand  []byte
	items []paka.UDMGenerateAVItem
}

var refillPool = sync.Pool{New: func() any { return new(refill) }}

func (r *refill) release() {
	clear(r.items[:cap(r.items)])
	refillPool.Put(r)
}

// avRequestBatch mints count enclave inputs into r through one UDR round
// trip (NextAuthBatch) and one entropy draw. The state evolution is
// bit-identical to count sequential avRequest calls: the UDR advances the
// SQN with the same per-vector step under one lock, and the single
// entropy read is sliced into the same 16 bytes per item, in order.
func (u *UDM) avRequestBatch(ctx context.Context, supi codec.SUPI, snn string, count int, r *refill) ([]paka.UDMGenerateAVItem, error) {
	auth, err := u.udr.NextAuthBatch(ctx, supi, count)
	if err != nil {
		return nil, err
	}
	// One RAND backing and one item slice per refill, the scratch's.
	r.rand = slices.Grow(r.rand[:0], 16*count)[:16*count]
	if _, err := io.ReadFull(u.entropy, r.rand); err != nil {
		return nil, sbi.Problem(500, "Internal Server Error", sbi.CauseSystem, "RAND generation: %v", err)
	}
	r.items = slices.Grow(r.items[:0], count)[:count]
	for i := range r.items {
		r.items[i] = paka.UDMGenerateAVItem{
			SUPI:  supi,
			OPc:   auth.OPc,
			RAND:  r.rand[i*16 : (i+1)*16 : (i+1)*16],
			SQN:   auth.SQN(i),
			AMFID: auth.AMFField,
			SNN:   snn,
		}
	}
	return r.items, nil
}

// pooledAV serves from the precomputation pool into av, refilling
// synchronously on a miss: one batch crossing mints the count take asks
// for (two on first contact, the pool depth after), the oldest serves this
// request and the rest are banked for the SUPI's next authentications.
func (u *UDM) pooledAV(ctx context.Context, supi codec.SUPI, snn string, av *paka.UDMGenerateAVResponse) error {
	count := u.pool.take(supi, av)
	if count == 0 {
		return nil
	}
	vectors, err := u.mintBatch(ctx, supi, snn, count)
	if err != nil {
		return err
	}
	*av = vectors[0]
	u.pool.fill(supi, vectors[1:])
	return nil
}

// mintBatch mints count vectors for supi through one UDR round trip and
// one boundary crossing, on a refill scratch it draws and returns.
func (u *UDM) mintBatch(ctx context.Context, supi codec.SUPI, snn string, count int) ([]paka.UDMGenerateAVResponse, error) {
	r := refillPool.Get().(*refill)
	defer r.release()
	items, err := u.avRequestBatch(ctx, supi, snn, count, r)
	if err != nil {
		return nil, err
	}
	return u.generateBatch(ctx, items)
}

// generateBatch mints the given items through one boundary crossing,
// falling back to the per-item path (which carries the reprovision retry)
// when the batch call reports a lost key store. Only that fallback formats
// the SUPI's text, which a single request still carries.
func (u *UDM) generateBatch(ctx context.Context, items []paka.UDMGenerateAVItem) ([]paka.UDMGenerateAVResponse, error) {
	resp, err := u.fns.GenerateAVBatch(ctx, &paka.UDMGenerateAVBatchRequest{Items: items})
	switch {
	case err == nil:
		if len(resp.Vectors) != len(items) {
			return nil, sbi.Problem(500, "Internal Server Error", sbi.CauseSystem,
				"batch returned %d vectors for %d items", len(resp.Vectors), len(items))
		}
		return resp.Vectors, nil
	case !sbi.HasCause(err, sbi.CauseUserNotFound):
		return nil, err
	}
	vectors := make([]paka.UDMGenerateAVResponse, 0, len(items))
	for i := range items {
		it := &items[i]
		av, err := u.generateAV(ctx, &paka.UDMGenerateAVRequest{
			SUPI: it.SUPI.String(), OPc: it.OPc, RAND: it.RAND, SQN: it.SQN, AMFID: it.AMFID, SNN: it.SNN,
		})
		if err != nil {
			return nil, err
		}
		vectors = append(vectors, av)
	}
	return vectors, nil
}

// handleResync recovers the UE's SQN_MS from its AUTS in the eUDM and
// rebases the UDR's counter above it. OPc comes from a zero-count
// NextAuthBatch: a read that advances no SQN and carries no K.
func (u *UDM) handleResync(ctx context.Context, req *ResyncRequest, _ *Empty) error {
	auth, err := u.udr.NextAuthBatch(ctx, req.SUPI, 0)
	if err != nil {
		return err
	}
	resp, err := u.fns.Resync(ctx, &paka.UDMResyncRequest{
		SUPI: req.SUPI,
		OPc:  auth.OPc,
		RAND: req.RAND,
		AUTS: req.AUTS,
	})
	if err != nil {
		return sbi.Problem(403, "Forbidden", "SYNC_FAILURE", "%v", err)
	}
	if err := u.udr.Resync(ctx, req.SUPI, resp.SQNMS); err != nil {
		return err
	}
	if u.pool != nil {
		// The rebase stranded any banked vectors: their SQNs predate the
		// UE's recovered counter and would fail its freshness check.
		u.pool.invalidate(req.SUPI)
	}
	return nil
}

// Reprovisions reports how many subscriber keys were pushed into the
// execution environment after it missed them.
func (u *UDM) Reprovisions() uint64 { return u.reprovisions.Load() }

// Client is the AUSF-side helper for UDM calls.
type Client struct {
	invoker sbi.Invoker
	service string
}

// NewClientFor wraps an SBI transport for UDM calls against a specific
// replica's service name, with no NRF round trip and no trust-domain check
// (tooling and measurement harnesses; NFs bind through DiscoverClient).
func NewClientFor(invoker sbi.Invoker, service string) *Client {
	return &Client{invoker: invoker, service: service}
}

// DiscoverClient resolves the UDM instance serving service through the NRF
// (restricted to HMEE-enabled hosts when requireHMEE is set) and returns a
// client bound to it.
func DiscoverClient(ctx context.Context, invoker sbi.Invoker, service string, requireHMEE bool) (*Client, error) {
	p, err := nrf.NewClient(invoker).Discover(ctx, NFType, service, requireHMEE)
	if err != nil {
		return nil, fmt.Errorf("udm: discovery: %w", err)
	}
	return NewClientFor(invoker, p.Service), nil
}

// GenerateAuthData requests a fresh HE AV.
func (c *Client) GenerateAuthData(ctx context.Context, req *GenerateAuthDataRequest) (GenerateAuthDataResponse, error) {
	return generateAuthData.Post(ctx, c.invoker, c.service, *req)
}

// Resync reports an AUTS for sequence-number recovery.
func (c *Client) Resync(ctx context.Context, req *ResyncRequest) error {
	return resync.Send(ctx, c.invoker, c.service, *req)
}
