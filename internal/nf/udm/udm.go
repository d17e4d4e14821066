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
}

// GenerateAuthDataResponse is the HE AV plus the de-concealed SUPI.
type GenerateAuthDataResponse struct {
	SUPI     string        `json:"supi"`
	RAND     codec.Bytes16 `json:"rand"`
	AUTN     codec.Bytes16 `json:"autn"`
	XRESStar codec.Bytes16 `json:"xres_star"`
	KAUSF    codec.Bytes32 `json:"kausf"`
}

// ResyncRequest reports a UE synchronisation failure (AUTS) for SQN
// recovery.
type ResyncRequest struct {
	SUPI string `json:"supi"`
	RAND []byte `json:"rand"`
	AUTS []byte `json:"auts"`
}

// Empty is an empty response body.
type Empty struct{}

// Config wires a UDM instance.
type Config struct {
	Env *costmodel.Env
	// Registry hosts the UDM's SBI server.
	Registry *sbi.Registry
	// Invoker reaches the UDR and the NRF.
	Invoker sbi.Invoker
	// Functions is the AKA execution environment, the eUDM module.
	Functions paka.UDMFunctions
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
	Reprovision func(ctx context.Context, supi string, k []byte) error
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
	nrfc        *nrf.Client
	fns         paka.UDMFunctions
	hnKey       *suci.HomeNetworkKey
	entropy     io.Reader
	reprovision func(ctx context.Context, supi string, k []byte) error
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
		nrfc:        nrf.NewClient(cfg.Invoker),
		fns:         cfg.Functions,
		hnKey:       cfg.HomeNetworkKey,
		entropy:     entropy,
		reprovision: cfg.Reprovision,
	}
	if cfg.AVPoolDepth > 0 {
		u.pool = newAVPool(cfg.AVPoolDepth)
	}
	u.server.HandleDual(PathGenerateAuthData, sbi.BinHandlerInto(u.handleGenerateAuthData))
	u.server.HandleDual(PathResync, sbi.BinHandler(u.handleResync))
	if err := cfg.Registry.Register(u.server); err != nil {
		return nil, err
	}
	if err := u.nrfc.Register(ctx, nrf.NFProfile{
		InstanceID: service + "-1", NFType: NFType, Service: service, HMEE: cfg.HMEE,
	}); err != nil {
		return nil, fmt.Errorf("udm: NRF registration: %w", err)
	}
	return u, nil
}

func (u *UDM) handleGenerateAuthData(ctx context.Context, req *GenerateAuthDataRequest, resp *GenerateAuthDataResponse) error {
	supi := req.SUPI
	if supi == "" {
		switch {
		case req.SUCI == nil:
			return sbi.Problem(400, "Bad Request", "MANDATORY_IE_MISSING", "SUCI or SUPI required")
		case req.SUCI.Scheme == suci.SchemeNull:
			// Null protection scheme (test networks): no deconcealment.
			id, err := req.SUCI.NullSUPI()
			if err != nil {
				return sbi.Problem(403, "Forbidden", "DECONCEALMENT_FAILURE", "%v", err)
			}
			supi = id.String()
		default:
			u.env.Charge(ctx, suciDeconcealCycles)
			id, err := u.hnKey.Deconceal(req.SUCI)
			if err != nil {
				return sbi.Problem(403, "Forbidden", "DECONCEALMENT_FAILURE", "%v", err)
			}
			supi = id.String()
		}
	}
	if req.ServingNetworkName == "" {
		return sbi.Problem(400, "Bad Request", "MANDATORY_IE_MISSING", "serving network name required")
	}

	var av paka.UDMGenerateAVResponse
	var err error
	if u.pool != nil {
		err = u.pooledAV(ctx, supi, req.ServingNetworkName, &av)
	} else {
		err = u.freshAV(ctx, supi, req.ServingNetworkName, &av)
	}
	if err != nil {
		return err
	}
	resp.SUPI = supi
	resp.RAND, resp.AUTN, resp.XRESStar, resp.KAUSF = av.RAND, av.AUTN, av.XRESStar, av.KAUSF
	return nil
}

// avRequest mints one enclave input: it advances the subscriber's SQN in
// the UDR and draws a fresh RAND. Every minted item — pooled or served
// immediately — goes through here, so sequence numbers stay consistent
// regardless of batching.
func (u *UDM) avRequest(ctx context.Context, supi, snn string) (paka.UDMGenerateAVRequest, error) {
	auth, err := u.udr.NextAuth(ctx, supi)
	if err != nil {
		return paka.UDMGenerateAVRequest{}, err
	}
	randBytes := make([]byte, 16)
	if _, err := io.ReadFull(u.entropy, randBytes); err != nil {
		return paka.UDMGenerateAVRequest{}, sbi.Problem(500, "Internal Server Error", "SYSTEM_FAILURE", "RAND generation: %v", err)
	}
	return paka.UDMGenerateAVRequest{
		SUPI:  supi,
		OPc:   auth.OPc,
		RAND:  randBytes,
		SQN:   auth.SQN,
		AMFID: auth.AMFField,
		SNN:   snn,
	}, nil
}

// generateAV invokes the execution environment for a single vector, with
// the reprovision-on-lost-key retry.
func (u *UDM) generateAV(ctx context.Context, avReq *paka.UDMGenerateAVRequest) (*paka.UDMGenerateAVResponse, error) {
	av, err := u.fns.GenerateAV(ctx, avReq)
	if err != nil && u.reprovision != nil && sbi.HasCause(err, "USER_NOT_FOUND") {
		// Graceful degradation: the execution environment misses the key
		// (a guest keeps no sealed backup: its crash-restart emptied the
		// store, or a rebalance routed the SUPI here). Re-fetch the
		// long-term key from the UDR, push it in, and retry once.
		if sub, gerr := u.udr.Get(ctx, avReq.SUPI); gerr == nil {
			if perr := u.reprovision(ctx, avReq.SUPI, sub.K); perr == nil {
				u.reprovisions.Add(1)
				av, err = u.fns.GenerateAV(ctx, avReq)
			}
		}
	}
	return av, err
}

// freshAV is the unpooled path: one SQN advance, one RAND, one crossing,
// the vector written into av.
func (u *UDM) freshAV(ctx context.Context, supi, snn string, av *paka.UDMGenerateAVResponse) error {
	avReq, err := u.avRequest(ctx, supi, snn)
	if err != nil {
		return err
	}
	fresh, err := u.generateAV(ctx, &avReq)
	if err != nil {
		return err
	}
	*av = *fresh
	return nil
}

// avRequestBatch mints count enclave inputs through one UDR round trip
// (NextAuthBatch) and one entropy draw. The state evolution is
// bit-identical to count sequential avRequest calls: the UDR advances the
// SQN with the same per-vector step under one lock, and the single
// entropy read is sliced into the same 16 bytes per item, in order.
//
//shieldlint:hotpath
func (u *UDM) avRequestBatch(ctx context.Context, supi, snn string, count int) ([]paka.UDMGenerateAVRequest, error) {
	auth, err := u.udr.NextAuthBatch(ctx, supi, count)
	if err != nil {
		return nil, err
	}
	//shieldlint:ignore hotalloc one RAND backing per refill, amortized over the batch
	randBytes := make([]byte, 16*count)
	if _, err := io.ReadFull(u.entropy, randBytes); err != nil {
		return nil, sbi.Problem(500, "Internal Server Error", "SYSTEM_FAILURE", "RAND generation: %v", err)
	}
	//shieldlint:ignore hotalloc one item slice per refill, amortized over the batch
	items := make([]paka.UDMGenerateAVRequest, count)
	for i := range items {
		items[i] = paka.UDMGenerateAVRequest{
			SUPI:  supi,
			OPc:   auth.OPc,
			RAND:  randBytes[i*16 : (i+1)*16 : (i+1)*16],
			SQN:   auth.SQN(i),
			AMFID: auth.AMFField,
			SNN:   snn,
		}
	}
	return items, nil
}

// pooledAV serves from the precomputation pool into av, refilling
// synchronously on a miss: one batch crossing mints the count take asks
// for (two on first contact, the pool depth after), the oldest serves this
// request and the rest are banked for the SUPI's next authentications.
func (u *UDM) pooledAV(ctx context.Context, supi, snn string, av *paka.UDMGenerateAVResponse) error {
	count := u.pool.take(supi, av)
	if count == 0 {
		return nil
	}
	items, err := u.avRequestBatch(ctx, supi, snn, count)
	if err != nil {
		return err
	}
	vectors, err := u.generateBatch(ctx, items)
	if err != nil {
		return err
	}
	*av = vectors[0]
	u.pool.fill(supi, vectors[1:])
	return nil
}

// generateBatch mints the given items through one boundary crossing,
// falling back to the per-item path (which carries the reprovision retry)
// when the batch call reports a lost key store.
func (u *UDM) generateBatch(ctx context.Context, items []paka.UDMGenerateAVRequest) ([]paka.UDMGenerateAVResponse, error) {
	resp, err := u.fns.GenerateAVBatch(ctx, &paka.UDMGenerateAVBatchRequest{Items: items})
	switch {
	case err == nil:
		if len(resp.Vectors) != len(items) {
			return nil, sbi.Problem(500, "Internal Server Error", "SYSTEM_FAILURE",
				"batch returned %d vectors for %d items", len(resp.Vectors), len(items))
		}
		return resp.Vectors, nil
	case !sbi.HasCause(err, "USER_NOT_FOUND"):
		return nil, err
	}
	vectors := make([]paka.UDMGenerateAVResponse, 0, len(items))
	for i := range items {
		av, err := u.generateAV(ctx, &items[i])
		if err != nil {
			return nil, err
		}
		vectors = append(vectors, *av)
	}
	return vectors, nil
}

// handleResync recovers the UE's SQN_MS from its AUTS in the eUDM and
// rebases the UDR's counter above it. OPc comes from a zero-count
// NextAuthBatch: a read that advances no SQN and carries no K.
func (u *UDM) handleResync(ctx context.Context, req *ResyncRequest) (*Empty, error) {
	auth, err := u.udr.NextAuthBatch(ctx, req.SUPI, 0)
	if err != nil {
		return nil, err
	}
	resp, err := u.fns.Resync(ctx, &paka.UDMResyncRequest{
		SUPI: req.SUPI,
		OPc:  auth.OPc,
		RAND: req.RAND,
		AUTS: req.AUTS,
	})
	if err != nil {
		return nil, sbi.Problem(403, "Forbidden", "SYNC_FAILURE", "%v", err)
	}
	if err := u.udr.Resync(ctx, req.SUPI, resp.SQNMS); err != nil {
		return nil, err
	}
	if u.pool != nil {
		// The rebase stranded any banked vectors: their SQNs predate the
		// UE's recovered counter and would fail its freshness check.
		u.pool.invalidate(req.SUPI)
	}
	return &Empty{}, nil
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
func (c *Client) GenerateAuthData(ctx context.Context, req *GenerateAuthDataRequest) (*GenerateAuthDataResponse, error) {
	var resp GenerateAuthDataResponse
	if err := c.invoker.Post(ctx, c.service, PathGenerateAuthData, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Resync reports an AUTS for sequence-number recovery.
func (c *Client) Resync(ctx context.Context, req *ResyncRequest) error {
	return c.invoker.Post(ctx, c.service, PathResync, req, nil)
}
