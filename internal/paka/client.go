package paka

import (
	"context"
	"sync/atomic"

	"shield5g/internal/costmodel"
	"shield5g/internal/metrics"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// ResponseRecorder separates initial (cold) from stable (warm) response
// times, the paper's R_I versus R_S. Stable keeps the last LatencyWindow
// samples.
type ResponseRecorder struct {
	Initial *metrics.Recorder
	Stable  *metrics.Recorder

	// seen is set by the first response.
	seen atomic.Bool
}

// NewResponseRecorder allocates both recorders.
func NewResponseRecorder() *ResponseRecorder {
	return &ResponseRecorder{Initial: &metrics.Recorder{}, Stable: metrics.NewWindow(LatencyWindow)}
}

func (r *ResponseRecorder) add(env *costmodel.Env, cycles simclock.Cycles) {
	d := env.Model.Duration(cycles)
	if r.seen.CompareAndSwap(false, true) {
		r.Initial.Add(d)
	} else {
		r.Stable.Add(d)
	}
}

// Remote is a VNF's client to the P-AKA module serving service — each VNF
// replica binds to its own shard's module. It carries every module's
// functions (a call the bound module does not serve answers 404): the UDM
// holds one for its eUDM, the AUSF for its eAUSF, the AMF for its eAMF. It
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

// The modules' operations: each module serves its own (registerEndpoints)
// and a VNF's Remote posts through the same variables.
var (
	eudmGenerateAV      = sbi.Endpoint[UDMGenerateAVRequest, UDMGenerateAVResponse]{Path: PathUDMGenerateAV}
	eudmGenerateAVBatch = sbi.Endpoint[UDMGenerateAVBatchRequest, UDMGenerateAVBatchResponse]{Path: PathUDMGenerateAVBatch}
	eudmResync          = sbi.Endpoint[UDMResyncRequest, UDMResyncResponse]{Path: PathUDMResync}
	eausfDeriveSE       = sbi.Endpoint[AUSFDeriveSERequest, AUSFDeriveSEResponse]{Path: PathAUSFDeriveSE}
	eamfDeriveKAMF      = sbi.Endpoint[AMFDeriveKAMFRequest, AMFDeriveKAMFResponse]{Path: PathAMFDeriveKAMF}
)

// timed is one served module invocation, its response time recorded.
func timed[Req, Resp any](ctx context.Context, r *Remote, e *sbi.Endpoint[Req, Resp], req Req) (resp Resp, err error) {
	n, _, err := simclock.Book(ctx, func(ctx context.Context) (err error) {
		resp, err = e.Post(ctx, r.invoker, r.service, req)
		return err
	})
	if err == nil {
		r.response.add(r.env, n)
	}
	return resp, err
}

// GenerateAV asks the eUDM for one HE AV.
func (r *Remote) GenerateAV(ctx context.Context, req *UDMGenerateAVRequest) (UDMGenerateAVResponse, error) {
	return timed(ctx, r, &eudmGenerateAV, *req)
}

// GenerateAVBatch asks the eUDM for several HE AVs in one boundary
// crossing, the AV precomputation pool's refill. It is not measured: a
// refill is maintenance, and must not contaminate the R_I/R_S
// response-time distributions of the paper's per-request path.
func (r *Remote) GenerateAVBatch(ctx context.Context, req *UDMGenerateAVBatchRequest) (UDMGenerateAVBatchResponse, error) {
	return eudmGenerateAVBatch.Post(ctx, r.invoker, r.service, *req)
}

// Resync asks the eUDM to recover the UE's SQN from an AUTS.
func (r *Remote) Resync(ctx context.Context, req *UDMResyncRequest) (UDMResyncResponse, error) {
	return timed(ctx, r, &eudmResync, *req)
}

// DeriveSE asks the eAUSF for HXRES* and K_SEAF.
func (r *Remote) DeriveSE(ctx context.Context, req *AUSFDeriveSERequest) (AUSFDeriveSEResponse, error) {
	return timed(ctx, r, &eausfDeriveSE, *req)
}

// DeriveKAMF asks the eAMF for K_AMF.
func (r *Remote) DeriveKAMF(ctx context.Context, req *AMFDeriveKAMFRequest) (AMFDeriveKAMFResponse, error) {
	return timed(ctx, r, &eamfDeriveKAMF, *req)
}
