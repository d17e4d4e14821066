package paka

import (
	"context"
	"sync"

	"shield5g/internal/costmodel"
	"shield5g/internal/metrics"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// UDMFunctions is the UDM VNF's view of its eUDM P-AKA module.
// GenerateAVBatch mints several AVs in one boundary crossing, the AV
// precomputation pool's refill.
type UDMFunctions interface {
	GenerateAV(ctx context.Context, req *UDMGenerateAVRequest) (*UDMGenerateAVResponse, error)
	GenerateAVBatch(ctx context.Context, req *UDMGenerateAVBatchRequest) (*UDMGenerateAVBatchResponse, error)
	Resync(ctx context.Context, req *UDMResyncRequest) (*UDMResyncResponse, error)
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
// times, the paper's R_I versus R_S. Stable keeps the last LatencyWindow
// samples.
type ResponseRecorder struct {
	Initial *metrics.Recorder
	Stable  *metrics.Recorder

	mu   sync.Mutex
	seen bool
}

// NewResponseRecorder allocates both recorders.
func NewResponseRecorder() *ResponseRecorder {
	return &ResponseRecorder{Initial: &metrics.Recorder{}, Stable: metrics.NewWindow(LatencyWindow)}
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

// GenerateAVBatch implements UDMFunctions. It posts directly through
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

// Interface conformance.
var (
	_ UDMFunctions  = (*Remote)(nil)
	_ AUSFFunctions = (*Remote)(nil)
	_ AMFFunctions  = (*Remote)(nil)
)
