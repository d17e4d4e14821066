package paka

import (
	"context"
	"errors"
	"sync"

	"shield5g/internal/hmee"
)

// Connection identifies one keep-alive client connection to the P-AKA
// modules, carried on the request context by the mass-registration
// drivers. Each module keeps one open connection per connection ID, so a
// worker's pipelined requests reuse it instead of re-paying the accept
// machinery and TLS handshake per UE.
type Connection struct {
	// ID distinguishes concurrent connections (one per driver worker).
	ID uint64
	// Batch is how many requests are served on one session before it is
	// recycled (closed and reopened); ≤0 disables keep-alive entirely,
	// leaving the per-request path bit-identical to the seed behaviour.
	Batch int
}

type connKey struct{}

// WithConnection attaches a keep-alive connection identity to ctx.
func WithConnection(ctx context.Context, id uint64, batch int) context.Context {
	return context.WithValue(ctx, connKey{}, Connection{ID: id, Batch: batch})
}

// ConnectionFrom extracts the connection identity; ok is false when no
// connection is attached or keep-alive is disabled.
func ConnectionFrom(ctx context.Context) (Connection, bool) {
	c, ok := ctx.Value(connKey{}).(Connection)
	return c, ok && c.Batch > 0
}

// moduleSession is one module-side keep-alive connection. Its mutex
// serialises requests on the same connection (a pipelined connection is
// ordered by construction); different connections proceed in parallel.
type moduleSession struct {
	mu sync.Mutex
	// rt is the runtime the connection is open on; nil when none is.
	rt     Runtime
	served int
}

// session returns (creating on demand) the per-connection state for id.
func (m *Module) session(id uint64) *moduleSession {
	m.sessMu.Lock()
	defer m.sessMu.Unlock()
	if m.sessions == nil {
		m.sessions = make(map[uint64]*moduleSession)
	}
	ms, ok := m.sessions[id]
	if !ok {
		ms = &moduleSession{}
		m.sessions[id] = ms
	}
	return ms
}

// dropSessions forgets all per-connection state without paying teardown
// costs — the connections died with the runtime (Stop, crash restart).
func (m *Module) dropSessions() {
	m.sessMu.Lock()
	m.sessions = nil
	m.sessMu.Unlock()
}

// serve routes one request through the runtime: the plain per-request
// path when no keep-alive connection rides ctx, otherwise a pipelined
// request on the connection. The connection's accept census and TLS
// handshake (hmee.Open) are paid once when it opens and its teardown
// (hmee.Close) once when it is recycled, every Connection.Batch requests,
// so batch size is a real amortization factor.
func (m *Module) serve(ctx context.Context, in, out int, h Handler) (Breakdown, error) {
	conn, ok := ConnectionFrom(ctx)
	if !ok {
		return m.rt().Cross(ctx, hmee.OneShot, in, out, h)
	}

	rt := m.rt()
	ms := m.session(conn.ID)
	ms.mu.Lock()
	defer ms.mu.Unlock()

	// Open a connection when none is open on this runtime; one opened on a
	// previous runtime died with its enclave when the module
	// crash-restarted, and costs no teardown.
	if ms.rt != rt {
		if _, err := rt.Cross(ctx, hmee.Open, 0, 0, nil); err != nil {
			return Breakdown{}, err
		}
		ms.rt, ms.served = rt, 0
	}

	bd, err := rt.Cross(ctx, hmee.Pipelined, in, out, h)
	if err != nil {
		// Never reuse a connection that just failed — the retry path must
		// reopen on whatever runtime is then current.
		ms.rt = nil
		return bd, err
	}
	ms.served++
	if ms.served >= conn.Batch {
		ms.rt = nil
		// A runtime that shut down took the connection with it: nothing is
		// left to tear down.
		if _, err := rt.Cross(ctx, hmee.Close, 0, 0, nil); err != nil && !errors.Is(err, hmee.ErrStopped) {
			return bd, err
		}
	}
	return bd, nil
}
