package paka

import (
	"context"
	"sync"

	"shield5g/internal/costmodel"
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

// Remote is a VNF's client to the P-AKA module serving service — each VNF
// replica binds to its own shard's module. It carries every module's
// functions (a call the bound module does not serve answers 404) and
// measures the VNF-side response time R of each invocation: the duration
// from sending the request to receiving the response.
type Remote struct {
	invoker  sbi.Invoker
	env      *costmodel.Env
	service  string
	response *ResponseRecorder
}

// NewRemote builds a VNF's client to the module registered as service.
func NewRemote(invoker sbi.Invoker, env *costmodel.Env, service string) *Remote {
	return &Remote{invoker: invoker, env: env, service: service, response: NewResponseRecorder()}
}

// Response exposes the R_I/R_S recorders.
func (r *Remote) Response() *ResponseRecorder { return r.response }

// post is one served module invocation, its response time recorded.
func post[Resp any](ctx context.Context, r *Remote, path string, req any) (*Resp, error) {
	acct := simclock.AccountFrom(ctx)
	start := acct.Total()
	resp := new(Resp)
	if err := r.invoker.Post(ctx, r.service, path, req, resp); err != nil {
		return nil, err
	}
	r.response.add(r.env, acct.Total()-start)
	return resp, nil
}

// GenerateAV implements UDMFunctions.
func (r *Remote) GenerateAV(ctx context.Context, req *UDMGenerateAVRequest) (*UDMGenerateAVResponse, error) {
	return post[UDMGenerateAVResponse](ctx, r, PathUDMGenerateAV, req)
}

// GenerateAVBatch implements UDMBatchFunctions. It posts directly through
// the invoker, not the measuring post: a pool refill is maintenance, and
// must not contaminate the R_I/R_S response-time distributions of the
// paper's per-request path.
func (r *Remote) GenerateAVBatch(ctx context.Context, req *UDMGenerateAVBatchRequest) (*UDMGenerateAVBatchResponse, error) {
	resp := new(UDMGenerateAVBatchResponse)
	if err := r.invoker.Post(ctx, r.service, PathUDMGenerateAVBatch, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Resync implements UDMFunctions.
func (r *Remote) Resync(ctx context.Context, req *UDMResyncRequest) (*UDMResyncResponse, error) {
	return post[UDMResyncResponse](ctx, r, PathUDMResync, req)
}

// DeriveSE implements AUSFFunctions.
func (r *Remote) DeriveSE(ctx context.Context, req *AUSFDeriveSERequest) (*AUSFDeriveSEResponse, error) {
	return post[AUSFDeriveSEResponse](ctx, r, PathAUSFDeriveSE, req)
}

// DeriveKAMF implements AMFFunctions.
func (r *Remote) DeriveKAMF(ctx context.Context, req *AMFDeriveKAMFRequest) (*AMFDeriveKAMFResponse, error) {
	return post[AMFDeriveKAMFResponse](ctx, r, PathAMFDeriveKAMF, req)
}

// --- monolithic baselines ---

// MonolithicUDM executes the UDM AKA functions in-process (the unmodified
// OAI baseline the paper compares against). Subscriber keys live in plain
// process memory.
type MonolithicUDM struct {
	env     *costmodel.Env
	profile Profile

	mu   sync.Mutex
	keys map[string][]byte
}

// NewMonolithicUDM builds the in-process UDM AKA functions.
func NewMonolithicUDM(env *costmodel.Env) *MonolithicUDM {
	return &MonolithicUDM{
		env:     env,
		profile: Profiles()[EUDM],
		keys:    make(map[string][]byte),
	}
}

// ProvisionSubscriber stores a subscriber key in process memory.
func (u *MonolithicUDM) ProvisionSubscriber(supi string, k []byte) {
	u.mu.Lock()
	u.keys[supi] = append([]byte(nil), k...)
	u.mu.Unlock()
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
	return GenerateAV(k, req)
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
	return Resync(k, req)
}

// MonolithicKDF executes the AUSF and AMF AKA functions — stateless key
// derivations both — in-process.
type MonolithicKDF struct {
	env       *costmodel.Env
	ausf, amf Profile
}

// NewMonolithicKDF builds the in-process AUSF and AMF AKA functions.
func NewMonolithicKDF(env *costmodel.Env) *MonolithicKDF {
	p := Profiles()
	return &MonolithicKDF{env: env, ausf: p[EAUSF], amf: p[EAMF]}
}

// DeriveSE implements AUSFFunctions in-process.
func (a *MonolithicKDF) DeriveSE(ctx context.Context, req *AUSFDeriveSERequest) (*AUSFDeriveSEResponse, error) {
	a.env.Charge(ctx, a.env.JitterFor(ctx).LogNormal(a.ausf.FnCycles, a.ausf.FnSigma))
	return DeriveSE(req)
}

// DeriveKAMF implements AMFFunctions in-process.
func (a *MonolithicKDF) DeriveKAMF(ctx context.Context, req *AMFDeriveKAMFRequest) (*AMFDeriveKAMFResponse, error) {
	a.env.Charge(ctx, a.env.JitterFor(ctx).LogNormal(a.amf.FnCycles, a.amf.FnSigma))
	return DeriveKAMF(req)
}

// Interface conformance.
var (
	_ UDMFunctions      = (*Remote)(nil)
	_ UDMBatchFunctions = (*Remote)(nil)
	_ AUSFFunctions     = (*Remote)(nil)
	_ AMFFunctions      = (*Remote)(nil)
	_ UDMFunctions      = (*MonolithicUDM)(nil)
	_ UDMBatchFunctions = (*MonolithicUDM)(nil)
	_ AUSFFunctions     = (*MonolithicKDF)(nil)
	_ AMFFunctions      = (*MonolithicKDF)(nil)
)
