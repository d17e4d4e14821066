package simclock

import "context"

// HopKind is what one hop of a procedure is.
type HopKind uint8

// The four kinds, one per site that records them.
const (
	// Radio is one access-side NAS round trip (gnb's chargeRadio).
	Radio HopKind = iota
	// Post is an SBI request on the client side; its site is the path.
	Post
	// Serve is an SBI request on the server side; its site is the
	// service that serves it.
	Serve
	// Cross is a P-AKA module's crossing into its runtime; its site is
	// the module's service and Phases the serve shape it requested.
	Cross
)

func (k HopKind) String() string { return [...]string{"radio", "post", "serve", "cross"}[k] }

// Hop is one entry of a Hops record.
type Hop struct {
	// Depth counts the hops open around this one when it was entered.
	Depth uint8
	Kind  HopKind
	// Phases is a crossing's requested serve shape: the phase set
	// (hmee.Phases) the module asked for, not the one its runtime admits
	// (a warm runtime drops the warm-up, and a one-shot request's
	// handshake, hmee.Phases.Warm). It is 0 on every other kind.
	Phases uint8
	Site   string
	// Cycles is what the procedure's account was charged across the hop,
	// its nested hops included, and Counts the boundary events counted on
	// it.
	Cycles Cycles
	Counts Counts
}

// HopCapacity is how many hops a record holds; the ones past it are
// counted (Overflow), not recorded.
const HopCapacity = 64

// Hops records one procedure's hops in the order they were entered: the
// paper's Fig. 5 on the virtual clock. A procedure records only when its
// context carries one — a Call whose Hops field points at it, which its
// children inherit — and every site checks for it and does nothing else
// when none rides; no option turns recording on. A record belongs to one
// procedure on one goroutine and allocates nothing as it fills.
type Hops struct {
	hops  [HopCapacity]Hop
	n     int
	depth uint8
}

// HopMark is an entered hop; Leave closes it. The zero mark, from a
// context that records nothing, closes nothing.
type HopMark struct {
	h    *Hops
	e    *Hop // nil past capacity
	acct *Account
}

// EnterHop opens a hop of kind at site on the record ctx carries, if any.
// A site calls it as defer EnterHop(...).Leave(). The common case, a Call
// that carries no record, returns at once, inline.
func EnterHop(ctx context.Context, kind HopKind, site string, phases uint8) HopMark {
	switch c := ctx.(type) {
	case *Call:
		if c.Hops == nil {
			return HopMark{}
		}
	}
	return enterHop(ctx, kind, site, phases)
}

// enterHop is EnterHop past its inline early return: it reads the
// account's totals at the hop's start.
func enterHop(ctx context.Context, kind HopKind, site string, phases uint8) (m HopMark) {
	if c := CallFrom(ctx); c != nil && c.Hops != nil {
		m = HopMark{h: c.Hops, acct: c.Account}
		if h := m.h; h.n < len(h.hops) {
			m.e = &h.hops[h.n]
			*m.e = Hop{Depth: h.depth, Kind: kind, Phases: phases, Site: site, Cycles: c.Account.Total(), Counts: c.Account.Counts()}
		}
		m.h.n++
		m.h.depth++
	}
	return m
}

// Leave closes the hop, recording the account's Δ across it.
func (m HopMark) Leave() {
	if m.e != nil {
		m.e.Cycles = m.acct.Total() - m.e.Cycles
		m.e.Counts = m.acct.Counts().Sub(m.e.Counts)
	}
	if m.h != nil {
		m.h.depth--
	}
}

// Hops returns the hops recorded, in the order they were entered.
func (h *Hops) Hops() []Hop { return h.hops[:min(h.n, len(h.hops))] }

// Overflow reports how many hops were entered past HopCapacity.
func (h *Hops) Overflow() int { return max(h.n-len(h.hops), 0) }
