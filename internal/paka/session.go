package paka

import (
	"context"
	"sync"

	"shield5g/internal/hmee"
)

// Connection identifies one keep-alive client connection to the P-AKA
// modules, carried on the request context by the mass-registration
// drivers. Each module keeps one open hmee.Session per connection ID,
// so a worker's pipelined requests reuse the connection instead of
// re-paying the accept machinery and TLS handshake per UE.
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
	mu     sync.Mutex
	rt     Runtime
	sess   *hmee.Session
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
// path when no keep-alive connection rides ctx, otherwise the
// connection's open session, recycled every Connection.Batch requests so
// batch size is a real amortization factor.
func (m *Module) serve(ctx context.Context, in, out int, h Handler) (Breakdown, error) {
	conn, ok := ConnectionFrom(ctx)
	if !ok {
		return m.rt().Cross(ctx, hmee.OneShot, in, out, h)
	}

	rt := m.rt()
	ms := m.session(conn.ID)
	ms.mu.Lock()
	defer ms.mu.Unlock()

	// A session opened on a previous runtime died with its enclave when
	// the module crash-restarted: drop it without teardown costs.
	if ms.rt != rt {
		ms.sess = nil
	}
	if ms.sess == nil {
		sess := new(hmee.Session)
		if err := sess.Open(ctx, rt); err != nil {
			return Breakdown{}, err
		}
		ms.rt, ms.sess, ms.served = rt, sess, 0
	}

	bd, err := ms.sess.Serve(ctx, in, out, h)
	if err != nil {
		// Never reuse a session that just failed — the retry path must
		// reopen on whatever runtime is then current.
		ms.sess = nil
		return bd, err
	}
	ms.served++
	if ms.served >= conn.Batch {
		if cerr := ms.sess.Close(ctx); cerr != nil {
			ms.sess = nil
			return bd, cerr
		}
		ms.sess = nil
	}
	return bd, nil
}
