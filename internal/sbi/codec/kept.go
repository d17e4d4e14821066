package codec

// Kept is storage a pooled message keeps between the bodies it carries: a
// list's backing and the one its JSON byte strings share, an optional
// member's target. No description names it, so no codec writes it out and
// nothing that reads the message sees it; a decode or a handler draws on
// it only where the message asks (KeptList, KeptPtr, Hold).
//
// Only a server's pooled pair (sbi.Endpoint.Serve) ever fills one: its
// message's Scrub method hands the storage its fields held back through
// Keep and KeepOne, which clear every element and byte up to capacity
// first, so no key or OPc a request carried outlives it. Everywhere else
// a Kept stays empty and a decode allocates as it would without one, so
// a message decoded anywhere else is the value encoding/json would decode.
type Kept[T any] struct {
	s   []T    // a list's backing
	b   []byte // its elements' byte strings, decoded from JSON (KeptList)
	one *T     // an optional member's target
}

// Take returns n zero elements: the kept backing when it holds n, a fresh
// backing otherwise, which Keep adopts once the message is done with it.
// A message takes once per field per body.
func (k *Kept[T]) Take(n int) []T {
	if k == nil || k.s == nil || cap(k.s) < n {
		return make([]T, n)
	}
	s := k.s[:n]
	clear(s)
	return s
}

// Hold is Take for a handler filling a field of a served pair's message:
// the backing it returns, fresh or not, is the kept one from then on, so
// the handler may hand out views of it (a response whose byte strings
// share one array) and Scrub still clears it all with Keep(nil).
func (k *Kept[T]) Hold(n int) []T {
	if cap(k.s) < n {
		k.s = make([]T, n)
	}
	s := k.s[:n]
	clear(s)
	return s
}

// Keep clears s, the backing a field of the message held (nil for one it
// holds already), and the kept backings, every element and byte up to
// capacity, and keeps the larger list backing for the next Take or Hold.
func (k *Kept[T]) Keep(s []T) {
	clear(s[:cap(s)])
	clear(k.s[:cap(k.s)])
	clear(k.b[:cap(k.b)])
	if cap(s) > cap(k.s) {
		k.s = s[:0]
	}
}

// takeOne returns a zero target for an optional member: the kept one, or
// a fresh one that KeepOne adopts.
func (k *Kept[T]) takeOne() *T {
	if k == nil || k.one == nil {
		return new(T)
	}
	return k.one
}

// KeepOne zeroes p, the target an optional member of the message held
// (nil when it held none), and keeps it for the next decode unless one is
// kept already.
func (k *Kept[T]) KeepOne(p *T) {
	if p == nil {
		return
	}
	var zero T
	*p = zero
	if k.one == nil {
		k.one = p
	}
}
