package paka

import (
	"context"
	"sync"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/metrics"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// UDMFunctions is the UDM VNF's view of its AKA offload target: either the
// in-process functions (monolithic baseline) or the eUDM P-AKA module.
type UDMFunctions interface {
	GenerateAV(ctx context.Context, req *UDMGenerateAVRequest) (*UDMGenerateAVResponse, error)
	Resync(ctx context.Context, req *UDMResyncRequest) (*UDMResyncResponse, error)
}

// UDMBatchFunctions is the optional batched extension of UDMFunctions:
// implementations that can mint several AVs per boundary crossing (the
// eUDM module via one batch ECALL, the monolithic baseline trivially)
// expose it so the UDM's AV precomputation pool refills in one crossing.
type UDMBatchFunctions interface {
	GenerateAVBatch(ctx context.Context, req *UDMGenerateAVBatchRequest) (*UDMGenerateAVBatchResponse, error)
}

// AUSFFunctions is the AUSF VNF's AKA offload view.
type AUSFFunctions interface {
	DeriveSE(ctx context.Context, req *AUSFDeriveSERequest) (*AUSFDeriveSEResponse, error)
}

// AMFFunctions is the AMF VNF's AKA offload view.
type AMFFunctions interface {
	DeriveKAMF(ctx context.Context, req *AMFDeriveKAMFRequest) (*AMFDeriveKAMFResponse, error)
}

// ResponseRecorder separates initial (cold) from stable (warm) response
// times, the paper's R_I versus R_S.
type ResponseRecorder struct {
	Initial *metrics.Recorder
	Stable  *metrics.Recorder

	mu   sync.Mutex
	seen bool
}

// NewResponseRecorder allocates both recorders.
func NewResponseRecorder() *ResponseRecorder {
	return &ResponseRecorder{Initial: &metrics.Recorder{}, Stable: &metrics.Recorder{}}
}

func (r *ResponseRecorder) add(env *costmodel.Env, cycles simclock.Cycles) {
	d := env.Model.Duration(cycles)
	r.mu.Lock()
	first := !r.seen
	r.seen = true
	r.mu.Unlock()
	if first {
		r.Initial.Add(d)
	} else {
		r.Stable.Add(d)
	}
}

// MarkWarm forces subsequent samples into the stable recorder (used when a
// module was warmed outside the measured window).
func (r *ResponseRecorder) MarkWarm() {
	r.mu.Lock()
	r.seen = true
	r.mu.Unlock()
}

// remote measures the VNF-side response time R of every module invocation:
// the duration from sending the request to receiving the response.
type remote struct {
	invoker  sbi.Invoker
	env      *costmodel.Env
	service  string
	response *ResponseRecorder
}

func newRemote(invoker sbi.Invoker, env *costmodel.Env, service string) remote {
	return remote{invoker: invoker, env: env, service: service, response: NewResponseRecorder()}
}

func (r *remote) post(ctx context.Context, path string, req, resp any) error {
	acct := simclock.AccountFrom(ctx)
	start := acct.Total()
	if err := r.invoker.Post(ctx, r.service, path, req, resp); err != nil {
		return err
	}
	r.response.add(r.env, acct.Total()-start)
	return nil
}

// RemoteUDM invokes the eUDM P-AKA module over the SBI.
type RemoteUDM struct {
	remote
}

// NewRemoteUDM builds the UDM VNF's client to the eUDM module serving
// service: each VNF replica binds to its own shard's module.
func NewRemoteUDM(invoker sbi.Invoker, env *costmodel.Env, service string) *RemoteUDM {
	return &RemoteUDM{newRemote(invoker, env, service)}
}

// GenerateAV implements UDMFunctions.
func (r *RemoteUDM) GenerateAV(ctx context.Context, req *UDMGenerateAVRequest) (*UDMGenerateAVResponse, error) {
	var resp UDMGenerateAVResponse
	if err := r.post(ctx, PathUDMGenerateAV, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// GenerateAVBatch implements UDMBatchFunctions. It posts directly
// through the invoker, not the measuring post helper: a pool refill is
// maintenance, and must not contaminate the R_I/R_S response-time
// distributions of the paper's per-request path.
func (r *RemoteUDM) GenerateAVBatch(ctx context.Context, req *UDMGenerateAVBatchRequest) (*UDMGenerateAVBatchResponse, error) {
	var resp UDMGenerateAVBatchResponse
	if err := r.invoker.Post(ctx, r.service, PathUDMGenerateAVBatch, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Resync implements UDMFunctions.
func (r *RemoteUDM) Resync(ctx context.Context, req *UDMResyncRequest) (*UDMResyncResponse, error) {
	var resp UDMResyncResponse
	if err := r.post(ctx, PathUDMResync, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Response exposes the R_I/R_S recorders.
func (r *RemoteUDM) Response() *ResponseRecorder { return r.response }

// RemoteAUSF invokes the eAUSF P-AKA module over the SBI.
type RemoteAUSF struct {
	remote
}

// NewRemoteAUSF builds the AUSF VNF's client to the eAUSF module serving
// service: each VNF replica binds to its own shard's module.
func NewRemoteAUSF(invoker sbi.Invoker, env *costmodel.Env, service string) *RemoteAUSF {
	return &RemoteAUSF{newRemote(invoker, env, service)}
}

// DeriveSE implements AUSFFunctions.
func (r *RemoteAUSF) DeriveSE(ctx context.Context, req *AUSFDeriveSERequest) (*AUSFDeriveSEResponse, error) {
	var resp AUSFDeriveSEResponse
	if err := r.post(ctx, PathAUSFDeriveSE, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Response exposes the R_I/R_S recorders.
func (r *RemoteAUSF) Response() *ResponseRecorder { return r.response }

// RemoteAMF invokes the eAMF P-AKA module over the SBI.
type RemoteAMF struct {
	remote
}

// NewRemoteAMF builds the AMF VNF's client to the eAMF module serving
// service: each VNF replica binds to its own shard's module.
func NewRemoteAMF(invoker sbi.Invoker, env *costmodel.Env, service string) *RemoteAMF {
	return &RemoteAMF{newRemote(invoker, env, service)}
}

// DeriveKAMF implements AMFFunctions.
func (r *RemoteAMF) DeriveKAMF(ctx context.Context, req *AMFDeriveKAMFRequest) (*AMFDeriveKAMFResponse, error) {
	var resp AMFDeriveKAMFResponse
	if err := r.post(ctx, PathAMFDeriveKAMF, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Response exposes the R_I/R_S recorders.
func (r *RemoteAMF) Response() *ResponseRecorder { return r.response }

// --- monolithic baselines ---

// MonolithicUDM executes the UDM AKA functions in-process (the unmodified
// OAI baseline the paper compares against). Subscriber keys live in plain
// process memory.
type MonolithicUDM struct {
	env      *costmodel.Env
	profile  Profile
	milCache *milenage.Cache

	mu   sync.Mutex
	keys map[string][]byte
}

// NewMonolithicUDM builds the in-process UDM AKA functions.
func NewMonolithicUDM(env *costmodel.Env) *MonolithicUDM {
	return &MonolithicUDM{
		env:      env,
		profile:  Profiles()[EUDM],
		milCache: milenage.NewCache(),
		keys:     make(map[string][]byte),
	}
}

// ProvisionSubscriber stores a subscriber key in process memory.
func (u *MonolithicUDM) ProvisionSubscriber(supi string, k []byte) {
	u.mu.Lock()
	u.keys[supi] = append([]byte(nil), k...)
	u.mu.Unlock()
	// A re-provision may carry a new key; drop any cached schedule.
	u.milCache.Invalidate(supi)
}

func (u *MonolithicUDM) key(supi string) ([]byte, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	k, ok := u.keys[supi]
	return k, ok
}

// GenerateAV implements UDMFunctions in-process.
func (u *MonolithicUDM) GenerateAV(ctx context.Context, req *UDMGenerateAVRequest) (*UDMGenerateAVResponse, error) {
	k, ok := u.key(req.SUPI)
	if !ok {
		return nil, ErrUnknownSubscriber
	}
	u.env.Charge(ctx, u.env.JitterFor(ctx).LogNormal(u.profile.FnCycles, u.profile.FnSigma))
	return GenerateAVCached(u.milCache, k, req)
}

// GenerateAVBatch implements UDMBatchFunctions in-process: there is no
// boundary to amortize, so it is a plain loop charging K× the crypto.
func (u *MonolithicUDM) GenerateAVBatch(ctx context.Context, req *UDMGenerateAVBatchRequest) (*UDMGenerateAVBatchResponse, error) {
	resp := &UDMGenerateAVBatchResponse{Vectors: make([]UDMGenerateAVResponse, 0, len(req.Items))}
	for i := range req.Items {
		av, err := u.GenerateAV(ctx, &req.Items[i])
		if err != nil {
			return nil, err
		}
		resp.Vectors = append(resp.Vectors, *av)
	}
	return resp, nil
}

// Resync implements UDMFunctions in-process.
func (u *MonolithicUDM) Resync(ctx context.Context, req *UDMResyncRequest) (*UDMResyncResponse, error) {
	k, ok := u.key(req.SUPI)
	if !ok {
		return nil, ErrUnknownSubscriber
	}
	u.env.Charge(ctx, u.env.JitterFor(ctx).LogNormal(u.profile.FnCycles/2, u.profile.FnSigma))
	return ResyncCached(u.milCache, k, req)
}

// MonolithicAUSF executes the AUSF AKA functions in-process.
type MonolithicAUSF struct {
	env     *costmodel.Env
	profile Profile
}

// NewMonolithicAUSF builds the in-process AUSF AKA functions.
func NewMonolithicAUSF(env *costmodel.Env) *MonolithicAUSF {
	return &MonolithicAUSF{env: env, profile: Profiles()[EAUSF]}
}

// DeriveSE implements AUSFFunctions in-process.
func (a *MonolithicAUSF) DeriveSE(ctx context.Context, req *AUSFDeriveSERequest) (*AUSFDeriveSEResponse, error) {
	a.env.Charge(ctx, a.env.JitterFor(ctx).LogNormal(a.profile.FnCycles, a.profile.FnSigma))
	return DeriveSE(req)
}

// MonolithicAMF executes the AMF AKA function in-process.
type MonolithicAMF struct {
	env     *costmodel.Env
	profile Profile
}

// NewMonolithicAMF builds the in-process AMF AKA function.
func NewMonolithicAMF(env *costmodel.Env) *MonolithicAMF {
	return &MonolithicAMF{env: env, profile: Profiles()[EAMF]}
}

// DeriveKAMF implements AMFFunctions in-process.
func (a *MonolithicAMF) DeriveKAMF(ctx context.Context, req *AMFDeriveKAMFRequest) (*AMFDeriveKAMFResponse, error) {
	a.env.Charge(ctx, a.env.JitterFor(ctx).LogNormal(a.profile.FnCycles, a.profile.FnSigma))
	return DeriveKAMF(req)
}

// Interface conformance.
var (
	_ UDMFunctions      = (*RemoteUDM)(nil)
	_ UDMFunctions      = (*MonolithicUDM)(nil)
	_ UDMBatchFunctions = (*RemoteUDM)(nil)
	_ UDMBatchFunctions = (*MonolithicUDM)(nil)
	_ AUSFFunctions     = (*RemoteAUSF)(nil)
	_ AUSFFunctions     = (*MonolithicAUSF)(nil)
	_ AMFFunctions      = (*RemoteAMF)(nil)
	_ AMFFunctions      = (*MonolithicAMF)(nil)
)
