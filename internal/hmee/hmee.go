// Package hmee holds what every hardware-mediated execution environment
// backend (sgx/gramine, sev, the plain-container baseline) and the modules
// served inside them agree on: the execution surface a handler charges
// through, the handler itself, the phases of the modelled HTTPS server
// path, its syscall census, the one walk of that path every backend prices
// (Walk over a Surface), the one verb that crosses into a backend
// (Crossing), the latency windows of one served request, and the one
// attestation evidence both TEEs produce (Evidence). It also holds the
// backend that needs no hardware: the guest Process, which is the plain
// container and — at another price list — the inside of a confidential
// VM. It is a leaf: backends import it, it imports none of them.
package hmee

import (
	"context"
	"errors"

	"shield5g/internal/simclock"
)

// ErrStopped reports use of a backend that was shut down.
var ErrStopped = errors.New("hmee: runtime stopped")

// Crossing is a backend's one serve path: admit the request, walk its
// phases at the backend's prices, report the windows. Costs go to the
// account carried by ctx, which must be dedicated to this request for the
// returned Breakdown to be meaningful.
type Crossing interface {
	Cross(ctx context.Context, ph Phases, in, out int, h Handler) (Breakdown, error)
}

// Exec is the execution surface a module handler charges its work
// through. Inside an enclave it is the *sgx.Thread (memory-encryption
// overhead, AEX draws, EPC faults); in a confidential VM or a plain
// container it charges that backend's costs.
type Exec interface {
	// Compute charges n cycles of handler execution.
	Compute(n simclock.Cycles)
	// Touch charges access to n bytes of heap.
	Touch(nBytes uint64)
	// StoreSecret places a long-term key in the runtime's key store. The
	// store holds it inline: an entry is the name and the 16 bytes, with
	// no allocation of its own.
	StoreSecret(name string, k [16]byte)
	// LoadSecret copies the named key into dst, which the caller owns and
	// clears once it has no more use for it, and reports whether the store
	// holds the name.
	LoadSecret(name string, dst *[16]byte) bool
	// DeleteSecret drops the named key from the runtime's key store.
	DeleteSecret(name string)
}

// Handler is the work one request runs inside the execution environment.
// It is an interface, not a func, so a pooled per-request struct crosses
// every layer down to a ring job as itself — no closure is born per call.
type Handler interface {
	Run(Exec) error
}

// HandlerFunc adapts a plain function (maintenance work, tests) to Handler.
type HandlerFunc func(Exec) error

// Run calls f.
func (f HandlerFunc) Run(ex Exec) error { return f(ex) }

// Phases selects which parts of the modelled server path one crossing
// charges. Every serve shape is a set of them run by Walk, always in
// declaration order — except Handshake, see HandshakeFirst.
type Phases uint8

// The phases of the server path.
const (
	// Warmup is the lazy loading the first connection ever accepted pays.
	Warmup Phases = 1 << iota
	// Pre is the accept machinery: epoll_wait wake-up, futexes, accept.
	Pre
	// Handshake is the server-side TLS handshake.
	Handshake
	// Body is the per-request census: readiness wake-ups, request reads,
	// TLS and HTTP processing, the handler, the response writes.
	Body
	// Post is the teardown machinery: timer re-arm, helper IPC, stats.
	Post
	// Entry marks a handler-only crossing that carries its in/out bytes
	// over the boundary once (a batch): no server path around it.
	Entry
)

// The serve shapes. The zero set runs the handler alone, in place
// (maintenance). A keep-alive connection is one Open, any number of
// Pipelined requests and one Close: the accept census and the server-side
// TLS handshake are paid once at Open and the teardown once at Close, so a
// batch of B requests spreads the Pre+Post syscalls (81 under the default
// profile, each an EENTER/EEXIT pair under SGX) over B requests. Closing
// after the backend shut down fails with ErrStopped; the connection died
// with it.
const (
	// OneShot is a request that brings its own connection.
	OneShot = Warmup | Handshake | Pre | Body | Post
	// Open accepts a keep-alive connection.
	Open = Warmup | Pre | Handshake
	// Pipelined is one request on an open connection.
	Pipelined = Body
	// Close tears an open connection down.
	Close = Post
)

// Warm drops what only the first connection pays: the lazy loading and,
// for a request that brings its own connection, the handshake (the stable
// per-request path the paper calibrates never re-handshakes).
func (p Phases) Warm() Phases {
	if p&Body != 0 {
		p &^= Handshake
	}
	return p &^ Warmup
}

// HandshakeFirst reports the one place the seed's charge order departs
// from declaration order: a request that brings its own connection
// handshakes before its accept census, a bare Open after it.
func (p Phases) HandshakeFirst() bool { return p&(Handshake|Body) == Handshake|Body }

// SyscallProfile is the per-request syscall census of the module's HTTPS
// server. Under Gramine every syscall is proxied through an OCALL, so
// these counts are the source of the ~90 EENTER/EEXIT pairs the paper
// measures per UE registration (Table III); under a plain container or a
// confidential VM the same syscalls execute at native cost. All backends
// share this profile so their comparison differs only in the per-event
// price.
type SyscallProfile struct {
	// Pre counts the pre-request machinery: epoll_wait wake-up, futexes,
	// accept processing.
	Pre int
	// Read counts the request reads: recvmsg ×2 plus a readiness ioctl.
	Read int
	// InHandler counts syscalls issued during the AKA function itself
	// (clock_gettime in the debug/stats build).
	InHandler int
	// Write counts the response path: sendmsg ×2, epoll_ctl re-arm,
	// futex wake.
	Write int
	// Post counts the post-request machinery: timer re-arm, IPC with
	// helper threads, stats flush.
	Post int
}

// DefaultSyscallProfile reproduces the paper's ~90 transitions per served
// request.
func DefaultSyscallProfile() SyscallProfile {
	return SyscallProfile{Pre: 38, Read: 3, InHandler: 1, Write: 4, Post: 43}
}

// UserTCPSyscallProfile models the mTCP-style user-level network stack the
// paper proposes as a §V-B7 optimization: the TCP machinery runs inside
// the enclave over shared-memory packet rings, collapsing the per-request
// syscall census to the ring notifications (DPDK-style I/O). The trade-off
// the paper notes — more functionality inside the enclave, bigger TCB —
// is reflected in the TCB accounting, not hidden.
func UserTCPSyscallProfile() SyscallProfile {
	return SyscallProfile{Pre: 4, Read: 1, InHandler: 1, Write: 1, Post: 5}
}

// Total sums all phases.
func (sp SyscallProfile) Total() int {
	return sp.Pre + sp.Read + sp.InHandler + sp.Write + sp.Post
}

// Breakdown reports the virtual-time windows of one served request using
// the paper's metric names: L_F (functional latency: the AKA function
// execution), L_T (total latency: request receipt to response send inside
// the module), and the full server-side residence that the caller extends
// into the response time R.
type Breakdown struct {
	Functional simclock.Cycles
	Total      simclock.Cycles
	ServerSide simclock.Cycles
}
