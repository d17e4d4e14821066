// Package udr implements the Unified Data Repository: the credential
// storage unit for subscribers. The UDM fetches authentication subscription
// data (K, OPc, SQN, AMF field) from here when generating authentication
// vectors, and writes SQN updates back (increment per vector,
// resynchronisation after AUTS).
package udr

import (
	"context"
	"encoding/binary"
	"fmt"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/shard"
)

// ServiceName is the UDR's SBI service name.
const ServiceName = "udr"

// SBI endpoint paths.
const (
	PathProvision     = "/nudr-dr/v1/subscription-data/provision"
	PathNextAuth      = "/nudr-dr/v1/subscription-data/next-auth"
	PathNextAuthBatch = "/nudr-dr/v1/subscription-data/next-auth-batch"
	PathResync        = "/nudr-dr/v1/subscription-data/resync"
	PathGet           = "/nudr-dr/v1/subscription-data/get"
)

// sqnStep is the sequence-number increment per generated vector
// (TS 33.102 Annex C array scheme: 32 = one IND slot).
const sqnStep = 32

// Subscriber is one subscription record on the wire: what provisioning
// sends and Get returns.
type Subscriber struct {
	SUPI codec.SUPI `json:"supi"`
	// K is the 16-byte long-term subscriber key.
	K []byte `json:"k"`
	// OPc is the derived operator key.
	OPc []byte `json:"opc"`
	// SQN is the 6-byte network-side sequence number.
	SQN []byte `json:"sqn"`
	// AMFField is the 2-byte authentication management field (the
	// "separation bit" must be set for 5G AKA, giving 0x8000).
	AMFField []byte `json:"amf_field"`
}

func (s *Subscriber) validate() error {
	if s.SUPI == (codec.SUPI{}) {
		return fmt.Errorf("udr: empty SUPI")
	}
	if len(s.K) != 16 {
		return fmt.Errorf("udr: K length %d, want 16", len(s.K))
	}
	if len(s.OPc) != 16 {
		return fmt.Errorf("udr: OPc length %d, want 16", len(s.OPc))
	}
	if len(s.SQN) != 6 {
		return fmt.Errorf("udr: SQN length %d, want 6", len(s.SQN))
	}
	if len(s.AMFField) != 2 {
		return fmt.Errorf("udr: AMF field length %d, want 2", len(s.AMFField))
	}
	return nil
}

// record is a subscriber as the repository holds it: the fields at their
// fixed sizes in one flat allocation, the SUPI being the map key.
type record struct {
	k, opc [16]byte
	sqn    [sqnLen]byte
	amf    [2]byte
}

// ProvisionRequest adds or replaces a subscriber.
type ProvisionRequest struct {
	Subscriber Subscriber `json:"subscriber"`
}

// Empty is an empty response body.
type Empty struct{}

// NextAuthRequest fetches the subscriber's auth material and atomically
// advances the SQN for one new vector.
type NextAuthRequest struct {
	SUPI codec.SUPI `json:"supi"`
}

// NextAuthResponse returns the material the UDM feeds into AV generation.
// The long-term key K is deliberately NOT part of this response: it is
// delivered to the eUDM P-AKA module once at provisioning time, so the UDM
// VNF itself never handles it per request.
type NextAuthResponse struct {
	OPc      []byte `json:"opc"`
	SQN      []byte `json:"sqn"` // the SQN to use for this vector
	AMFField []byte `json:"amf_field"`

	// backing is the array the three share, which the UDR's served pair
	// keeps (see Scrub).
	backing codec.Kept[byte]
}

// NextAuthBatchRequest fetches the subscriber's auth material once and
// atomically advances the SQN Count times — the UDR half of an AV pool
// refill. One request replaces Count NextAuth round trips, and the
// per-refill SQN evolution is bit-identical to Count sequential NextAuth
// calls (the same advanceSQN per vector, under one stripe lock). Count 0
// reads the shared material without advancing the SQN: the resync path's
// OPc read, which must not carry K.
type NextAuthBatchRequest struct {
	SUPI  codec.SUPI `json:"supi"`
	Count int        `json:"count"`
}

// NextAuthBatchResponse carries the shared material once plus the Count
// advanced sequence numbers, concatenated oldest first (6 bytes each).
type NextAuthBatchResponse struct {
	OPc      []byte `json:"opc"`
	AMFField []byte `json:"amf_field"`
	// SQNs is Count six-byte sequence numbers, back to back.
	SQNs []byte `json:"sqns"`

	// backing is the array the three share, which the UDR's served pair
	// keeps (see Scrub).
	backing codec.Kept[byte]
}

// SQN returns the i-th six-byte sequence number of the batch.
func (r *NextAuthBatchResponse) SQN(i int) []byte {
	return r.SQNs[i*sqnLen : (i+1)*sqnLen : (i+1)*sqnLen]
}

// Vectors reports how many sequence numbers the batch carries.
func (r *NextAuthBatchResponse) Vectors() int { return len(r.SQNs) / sqnLen }

// sqnLen is the wire size of one sequence number.
const sqnLen = 6

// maxNextAuthBatch bounds one batch request; pool refills are single-digit.
const maxNextAuthBatch = 1024

// ResyncRequest overwrites the network SQN after a UE resynchronisation:
// the new value starts above the UE's reported SQN_MS.
type ResyncRequest struct {
	SUPI  codec.SUPI `json:"supi"`
	SQNMS []byte     `json:"sqn_ms"`
}

// GetRequest reads a subscriber record without advancing state.
type GetRequest struct {
	SUPI codec.SUPI `json:"supi"`
}

// GetResponse returns the stored record.
type GetResponse struct {
	Subscriber Subscriber `json:"subscriber"`
}

// The UDR's operations.
var (
	provision     = sbi.Endpoint[ProvisionRequest, Empty]{Path: PathProvision}
	nextAuth      = sbi.Endpoint[NextAuthRequest, NextAuthResponse]{Path: PathNextAuth}
	nextAuthBatch = sbi.Endpoint[NextAuthBatchRequest, NextAuthBatchResponse]{Path: PathNextAuthBatch}
	resync        = sbi.Endpoint[ResyncRequest, Empty]{Path: PathResync}
	get           = sbi.Endpoint[GetRequest, GetResponse]{Path: PathGet}
)

// UDR is the repository.
type UDR struct {
	server *sbi.Server

	// subs is lock-striped by SUPI: the per-record SQN advance stays
	// atomic (stripe write lock) while unrelated subscribers proceed in
	// parallel.
	subs *shard.Map[codec.SUPI, *record]
}

// New creates a UDR and registers its SBI server.
func New(env *costmodel.Env, registry *sbi.Registry) (*UDR, error) {
	u := &UDR{
		server: sbi.NewServer(ServiceName, env),
		subs:   shard.New[codec.SUPI, *record](codec.SUPI.Hash),
	}
	provision.Serve(u.server, u.handleProvision)
	nextAuth.Serve(u.server, u.handleNextAuth)
	nextAuthBatch.Serve(u.server, u.handleNextAuthBatch)
	resync.Serve(u.server, u.handleResync)
	get.Serve(u.server, u.handleGet)
	if err := registry.Register(u.server); err != nil {
		return nil, err
	}
	return u, nil
}

func (u *UDR) handleProvision(_ context.Context, req *ProvisionRequest, _ *Empty) error {
	s := req.Subscriber
	if err := s.validate(); err != nil {
		return sbi.Problem(400, "Bad Request", "MANDATORY_IE_INCORRECT", "%v", err)
	}
	r := &record{k: [16]byte(s.K), opc: [16]byte(s.OPc), sqn: [sqnLen]byte(s.SQN), amf: [2]byte(s.AMFField)}
	u.subs.Store(s.SUPI, r)
	return nil
}

func (u *UDR) handleNextAuth(_ context.Context, req *NextAuthRequest, resp *NextAuthResponse) error {
	u.subs.Update(req.SUPI, func(r *record, ok bool) {
		if !ok {
			return
		}
		// Advance the SQN first, then hand out the new value, so that
		// two consecutive vectors never share a sequence number. One
		// backing array, the pair's kept one, carries all three copied
		// fields.
		advanceSQN(r.sqn[:], sqnStep)
		buf := resp.backing.Hold(len(r.opc) + sqnLen + len(r.amf))[:0]
		buf = append(buf, r.opc[:]...)
		buf = append(buf, r.sqn[:]...)
		buf = append(buf, r.amf[:]...)
		resp.OPc = buf[:len(r.opc):len(r.opc)]
		resp.SQN = buf[len(r.opc) : len(r.opc)+sqnLen : len(r.opc)+sqnLen]
		resp.AMFField = buf[len(r.opc)+sqnLen:]
	})
	// The response is zero on entry: OPc is set iff the record exists.
	if resp.OPc == nil {
		return sbi.Problem(404, "Not Found", sbi.CauseUserNotFound, "subscriber %s", req.SUPI)
	}
	return nil
}

// handleNextAuthBatch advances the SQN Count times under one stripe lock
// and returns the shared material once. The state evolution is exactly
// Count sequential NextAuth calls; only the wire shape is batched.
func (u *UDR) handleNextAuthBatch(_ context.Context, req *NextAuthBatchRequest, resp *NextAuthBatchResponse) error {
	if req.Count < 0 || req.Count > maxNextAuthBatch {
		return sbi.Problem(400, "Bad Request", "MANDATORY_IE_INCORRECT", "batch count %d", req.Count)
	}
	u.subs.Update(req.SUPI, func(r *record, ok bool) {
		if !ok {
			return
		}
		buf := resp.backing.Hold(len(r.opc) + len(r.amf) + req.Count*sqnLen)[:0]
		buf = append(buf, r.opc[:]...)
		buf = append(buf, r.amf[:]...)
		shared := len(buf)
		for i := 0; i < req.Count; i++ {
			advanceSQN(r.sqn[:], sqnStep)
			buf = append(buf, r.sqn[:]...)
		}
		resp.OPc = buf[:len(r.opc):len(r.opc)]
		resp.AMFField = buf[len(r.opc):shared:shared]
		resp.SQNs = buf[shared:]
	})
	if resp.OPc == nil {
		return sbi.Problem(404, "Not Found", sbi.CauseUserNotFound, "subscriber %s", req.SUPI)
	}
	return nil
}

func (u *UDR) handleResync(_ context.Context, req *ResyncRequest, _ *Empty) error {
	if len(req.SQNMS) != 6 {
		return sbi.Problem(400, "Bad Request", "MANDATORY_IE_INCORRECT", "SQN_MS length %d", len(req.SQNMS))
	}
	found := false
	u.subs.Update(req.SUPI, func(r *record, ok bool) {
		if !ok {
			return
		}
		found = true
		r.sqn = [sqnLen]byte(req.SQNMS)
		advanceSQN(r.sqn[:], sqnStep)
	})
	if !found {
		return sbi.Problem(404, "Not Found", sbi.CauseUserNotFound, "subscriber %s", req.SUPI)
	}
	return nil
}

func (u *UDR) handleGet(_ context.Context, req *GetRequest, resp *GetResponse) error {
	// Copy under the stripe lock: a concurrent NextAuth mutates SQN in
	// place. The response's byte strings are views of the copy.
	cp := new(record)
	found := false
	u.subs.Update(req.SUPI, func(r *record, ok bool) {
		if ok {
			*cp, found = *r, true
		}
	})
	if !found {
		return sbi.Problem(404, "Not Found", sbi.CauseUserNotFound, "subscriber %s", req.SUPI)
	}
	resp.Subscriber = Subscriber{SUPI: req.SUPI, K: cp.k[:], OPc: cp.opc[:], SQN: cp.sqn[:], AMFField: cp.amf[:]}
	return nil
}

// Holds reports whether the repository has a record for supi. It reads
// no field of the record.
func (u *UDR) Holds(supi codec.SUPI) bool {
	_, ok := u.subs.Load(supi)
	return ok
}

// SubscriberCount reports the number of provisioned subscribers.
func (u *UDR) SubscriberCount() int {
	return u.subs.Len()
}

// advanceSQN adds step to the 48-bit big-endian sequence number in place,
// wrapping modulo 2^48.
func advanceSQN(sqn []byte, step uint64) {
	var buf [8]byte
	copy(buf[2:], sqn)
	v := binary.BigEndian.Uint64(buf[:])
	v = (v + step) & 0xFFFFFFFFFFFF
	binary.BigEndian.PutUint64(buf[:], v)
	copy(sqn, buf[2:])
}

// Client is the UDM-side helper for UDR calls.
type Client struct {
	invoker sbi.Invoker
}

// NewClient wraps an SBI transport for UDR calls.
func NewClient(invoker sbi.Invoker) *Client { return &Client{invoker: invoker} }

// Provision installs a subscriber record.
func (c *Client) Provision(ctx context.Context, s Subscriber) error {
	//shieldlint:ignore secretflow provisioning is the one sanctioned K transfer (operator onboarding), modelled after the paper's degraded pre-HMEE baseline
	return provision.Send(ctx, c.invoker, ServiceName, ProvisionRequest{Subscriber: s})
}

// NextAuth fetches auth material and advances the SQN. It takes the
// SUPI's text, which it parses without allocating.
func (c *Client) NextAuth(ctx context.Context, supi string) (NextAuthResponse, error) {
	id, err := codec.ParseSUPI(supi)
	if err != nil {
		return NextAuthResponse{}, fmt.Errorf("udr: %w", err)
	}
	return nextAuth.Post(ctx, c.invoker, ServiceName, NextAuthRequest{SUPI: id})
}

// NextAuthBatch fetches auth material once and advances the SQN count
// times, returning the per-vector sequence numbers oldest first.
func (c *Client) NextAuthBatch(ctx context.Context, supi codec.SUPI, count int) (NextAuthBatchResponse, error) {
	resp, err := nextAuthBatch.Post(ctx, c.invoker, ServiceName, NextAuthBatchRequest{SUPI: supi, Count: count})
	if err != nil {
		return NextAuthBatchResponse{}, err
	}
	if resp.Vectors() != count || len(resp.SQNs)%sqnLen != 0 {
		return NextAuthBatchResponse{}, sbi.Problem(500, "Internal Server Error", sbi.CauseSystem,
			"next-auth batch returned %d bytes of SQNs for count %d", len(resp.SQNs), count)
	}
	return resp, nil
}

// Resync rebases the network SQN after UE resynchronisation.
func (c *Client) Resync(ctx context.Context, supi codec.SUPI, sqnMS []byte) error {
	return resync.Send(ctx, c.invoker, ServiceName, ResyncRequest{SUPI: supi, SQNMS: sqnMS})
}

// Get reads a subscriber record. The full record includes K, which is
// why only the UDM's reprovisioning path calls this, and only for a guest
// eUDM — a container or a confidential VM, whose key store misses K after
// a restart or a rebalance. An SGX eUDM restores K from its sealed file,
// so an SGX slice never calls Get; every deployment fetches
// vectors via NextAuth and a resync's OPc via a zero-count NextAuthBatch.
func (c *Client) Get(ctx context.Context, supi codec.SUPI) (Subscriber, error) {
	//shieldlint:ignore secretflow guest-eUDM reprovisioning path (container, SEV); SGX slices never call it and K stays in the enclave store
	resp, err := get.Post(ctx, c.invoker, ServiceName, GetRequest{SUPI: supi})
	return resp.Subscriber, err
}
