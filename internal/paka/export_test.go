package paka

import (
	"context"
	"sync"

	"shield5g/internal/hmee"
	"shield5g/internal/hmee/gramine"
)

// launchSGX launches the module cfg describes in an enclave, the way New
// does under SGX.
func launchSGX(ctx context.Context, cfg Config, profile Profile) (*gramine.Instance, error) {
	cfg.Isolation = SGX
	rt, err := launch(ctx, cfg, profile)
	if err != nil {
		return nil, err
	}
	return rt.(*gramine.Instance), nil
}

// loadedKeys is a module runtime that records every secret its handlers
// load: the very array LoadSecret filled for them, so a test can read what
// the handler left in it after the request is over.
type loadedKeys struct {
	Runtime
	mu   sync.Mutex
	keys []*[16]byte
}

// recordLoadedKeys puts a loadedKeys in front of m's runtime. Call it
// after provisioning: under SGX, m seals through the runtime's enclave,
// which the wrapper hides.
func recordLoadedKeys(m *Module) *loadedKeys {
	m.rtMu.Lock()
	defer m.rtMu.Unlock()
	r := &loadedKeys{Runtime: m.runtime}
	m.runtime = r
	return r
}

// Cross implements hmee.Crossing, serving h with a recording Exec.
func (r *loadedKeys) Cross(ctx context.Context, ph hmee.Phases, in, out int, h Handler) (Breakdown, error) {
	if inner := h; inner != nil {
		h = hmee.HandlerFunc(func(ex Exec) error { return inner.Run(recordingExec{ex, r}) })
	}
	return r.Runtime.Cross(ctx, ph, in, out, h)
}

// loaded returns the arrays filled so far.
func (r *loadedKeys) loaded() []*[16]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*[16]byte(nil), r.keys...)
}

type recordingExec struct {
	Exec
	r *loadedKeys
}

func (e recordingExec) LoadSecret(name string, dst *[16]byte) bool {
	ok := e.Exec.LoadSecret(name, dst)
	if ok {
		e.r.mu.Lock()
		e.r.keys = append(e.r.keys, dst)
		e.r.mu.Unlock()
	}
	return ok
}
