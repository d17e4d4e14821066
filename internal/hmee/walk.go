package hmee

import (
	"shield5g/internal/costmodel"
	"shield5g/internal/simclock"
)

// Surface is one backend's price list for the events of the server path:
// what a proxied syscall, a stretch of server compute, a staged body, a
// batch's bytes and the first connection's lazy loading cost there. Walk
// decides which events a request causes and in what order; a Surface only
// prices them, so two backends handed the same request differ in nothing
// but the cycles they charge.
type Surface interface {
	// Warmup charges the lazy loading the first connection ever accepted
	// pays.
	Warmup()
	// Syscalls charges n syscalls of the server's census, each moving out
	// bytes to the host kernel and in bytes back.
	Syscalls(n, out, in int)
	// ServerCompute charges n cycles of the server's own execution: the
	// TLS handshake, record protection, HTTP framing.
	ServerCompute(n simclock.Cycles)
	// Stage charges holding an n-byte message body in the module's memory.
	Stage(n int)
	// Entry charges a handler-only crossing its in/out bytes.
	Entry(in, out int)
	// Jitter is the request's stream of stochastic draws.
	Jitter() *simclock.Jitter
	// Exec is the execution surface the handler charges through.
	Exec() Exec
}

// perCall is the share of a body one of n reads or writes moves; a profile
// with none of them moves nothing.
func perCall(bytes, n int) int {
	if n <= 0 {
		return 0
	}
	return bytes/n + 1
}

// Walk charges the phases ph of one request through s, in the order Phases
// fixes, runs its handler, and reports the latency windows read off acct,
// the account s charges. It is the only place the server path is written
// down: the syscall census sp and the cost model m say what happens, s what
// it costs. The order is part of the contract — a backend may draw from the
// request's jitter stream on any charge, and the readiness wake-ups are
// drawn at the same position whether or not the accept machinery precedes
// them, so a pipelined request's draws align with a one-shot's.
//
//shieldlint:hotpath
func Walk(s Surface, m *costmodel.Model, sp SyscallProfile, acct *simclock.Account, ph Phases, in, out int, h Handler) (bd Breakdown, err error) {
	start := acct.Total()
	if ph&Warmup != 0 {
		s.Warmup()
	}
	handshakeFirst := ph.HandshakeFirst()
	if handshakeFirst {
		s.ServerCompute(m.TLSHandshakeServer)
	}
	if ph&(Pre|Body) != 0 {
		n := 0
		if ph&Pre != 0 {
			n = sp.Pre
		}
		if ph&Body != 0 {
			n += int(s.Jitter().Uint64n(3)) // 0–2 readiness wake-ups
		}
		s.Syscalls(n, 16, 16)
	}
	if ph&Handshake != 0 && !handshakeFirst {
		s.ServerCompute(m.TLSHandshakeServer)
	}

	switch {
	case ph&Body != 0:
		totalStart := acct.Total()
		s.Syscalls(sp.Read, 0, perCall(in, sp.Read))
		s.ServerCompute(m.TLSRecordCost(in) + m.HTTPCost(in))
		s.Stage(in)

		fnStart := acct.Total()
		s.Syscalls(sp.InHandler, 8, 8)
		err = h.Run(s.Exec())
		bd.Functional = acct.Total() - fnStart

		s.ServerCompute(m.HTTPCost(out) + m.TLSRecordCost(out))
		s.Stage(out)
		s.Syscalls(sp.Write, perCall(out, sp.Write), 0)
		bd.Total = acct.Total() - totalStart
	case h != nil:
		// Handler-only crossing: a batch (Entry) carries its bytes over the
		// boundary once, maintenance carries none.
		if ph&Entry != 0 {
			s.Entry(in, out)
		}
		err = h.Run(s.Exec())
	}

	if ph&Post != 0 {
		s.Syscalls(sp.Post, 16, 16)
	}
	bd.ServerSide = acct.Total() - start
	return bd, err
}
