package hmee

import (
	"context"
	"errors"
	"sync"
)

// Lifecycle errors every backend shares.
var (
	// ErrStopped reports use of a backend that was shut down.
	ErrStopped = errors.New("hmee: runtime stopped")
	// ErrSessionClosed reports a request on a closed keep-alive session.
	ErrSessionClosed = errors.New("hmee: session closed")
)

// Crossing is a backend's one serve path: admit the request, walk its
// phases at the backend's prices, report the windows. Costs go to the
// account carried by ctx, which must be dedicated to this request for the
// returned Breakdown to be meaningful.
type Crossing interface {
	Cross(ctx context.Context, ph Phases, in, out int, h Handler) (Breakdown, error)
}

// Session is one persistent keep-alive connection into a backend's HTTPS
// server. The connection-scoped machinery — the accept census and the
// server-side TLS handshake — is paid once at Open and the teardown once
// at Close, so requests pipelined through Serve pay only the per-request
// census: a batch of B requests spreads the Pre+Post syscalls (81 under
// the default profile, each an EENTER/EEXIT pair under SGX) over B
// requests.
type Session struct {
	c    Crossing
	mu   sync.Mutex
	open bool
}

// Open accepts one persistent client connection over c, charged to ctx's
// account once for the whole session. The first connection a backend ever
// accepts also pays the lazy warm-up its first one-shot would pay. s must
// be a zero Session.
func (s *Session) Open(ctx context.Context, c Crossing) error {
	if _, err := c.Cross(ctx, Open, 0, 0, nil); err != nil {
		return err
	}
	s.c, s.open = c, true
	return nil
}

// Serve runs one pipelined request on the session. The L_F and L_T
// Breakdown windows are bit-identical to a warm one-shot under the same
// jitter stream; ServerSide omits exactly the amortized Pre/Post
// machinery.
func (s *Session) Serve(ctx context.Context, inBytes, outBytes int, h Handler) (Breakdown, error) {
	s.mu.Lock()
	open := s.open
	s.mu.Unlock()
	if !open {
		return Breakdown{}, ErrSessionClosed
	}
	return s.c.Cross(ctx, Pipelined, inBytes, outBytes, h)
}

// Close tears the session's connection down, paying the post-request
// machinery once for the whole pipelined batch. Closing twice, or closing
// after the backend shut down (the connection died with it), is a free
// no-op.
func (s *Session) Close(ctx context.Context) error {
	s.mu.Lock()
	open := s.open
	s.open = false
	s.mu.Unlock()
	if !open {
		return nil
	}
	if _, err := s.c.Cross(ctx, Close, 0, 0, nil); err != nil && !errors.Is(err, ErrStopped) {
		return err
	}
	return nil
}
