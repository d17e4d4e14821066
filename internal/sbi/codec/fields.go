package codec

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"shield5g/internal/intern"
)

// Message is an SBI message with one field description. Fields visits
// every field in wire order, naming it as its json tag does and handing
// the visitor a pointer to it; that single visit drives all four codecs
// (AppendBinary, DecodeBinary, AppendJSON, DecodeJSON), so the two wire
// formats cannot drift apart. The struct's json tags stay: encoding/json
// is the reference the JSON half must match byte for byte, and the codec
// of any body that leaves the fast path.
type Message interface {
	Fields(f *Fields)
}

// Flag is a per-field attribute of a description.
type Flag uint8

const (
	// OmitEmpty is the json tag's omitempty: an empty string, a zero Int,
	// a false Bool or a nil pointer is left out of the JSON object.
	OmitEmpty Flag = 1 << iota
	// Own marks a byte string (or, on Struct, every byte string below
	// it) the decoder's caller retains: a frame decode compacts it into
	// the message's one owned backing instead of leaving a view into the
	// frame. Response types set it on their variable-length byte strings
	// (fixed-width values are Fixed, copied in place, and need no
	// owning); request types, decoded under the HandlerFunc loan, do not.
	// A JSON decode owns every byte string — base64 has to be decoded
	// somewhere — so the flag is moot there.
	Own
	// Intern canonicalises a decoded string through internal/intern, so
	// decoding the same protocol constant (an MCC, a serving network
	// name) costs no allocation after first sight. Identities need no
	// table: a SUPI or an auth-context ID is a value (Ident) decoded in
	// place, and a SUPI still carried as a string is unique, so interning
	// it would churn the table to its cap and then allocate anyway.
	Intern
)

type mode uint8

const (
	binAppend mode = iota
	binDecode
	jsonAppend
	jsonDecode
)

// Fields is the visitor a Message describes itself to. It is one of the
// four codecs, chosen by the entry point that pooled it.
type Fields struct {
	mode mode
	own  bool   // inside a Struct visited with Own
	buf  []byte // the body: written by the append modes, read by the decode ones
	off  int    // decode: how far buf has been read

	// err is a frame decode's first error. It is sticky: every later read
	// yields a zero value, so a description reads all its fields and the
	// entry point checks once.
	err error
	// bad is the JSON codecs' way out: they met something only
	// encoding/json reproduces (see plainByte and DecodeJSON), and the
	// entry point hands it the whole body.
	bad bool

	// JSON object state, saved and restored around nested objects.
	first bool   // append: no member written yet
	more  bool   // decode: key is a member name no field has claimed yet
	key   []byte // decode: that name, a view into the body
	idx   uint   // decode: ordinal of the field being visited
	seen  uint32 // decode: ordinals already decoded, to catch duplicates

	owned   []*[]byte // decoded byte strings awaiting compaction
	scratch []byte    // JSON decode: the base64 output owned views point into
}

// pool recycles visitors. A pooled one holds no reference into a message
// or a body — every entry point drops what it set — and has err nil, bad,
// own and more false, owned and scratch empty.
var pool = sync.Pool{New: func() any { return new(Fields) }}

// maxPooledScratch bounds the scratch a pooled Fields keeps: bodies run
// to 1 MiB, the registration path's to a few hundred bytes.
const maxPooledScratch = 4096

func get(m mode, body []byte) *Fields {
	f := pool.Get().(*Fields)
	f.mode, f.buf, f.off = m, body, 0
	return f
}

// AppendBinary appends m's frame payload to dst.
func AppendBinary(dst []byte, m Message) []byte {
	f := get(binAppend, dst)
	m.Fields(f)
	dst, f.buf = f.buf, nil
	pool.Put(f)
	return dst
}

// DecodeBinary decodes a frame payload into m; the payload must be
// consumed exactly. Byte strings not marked Own are views into payload;
// fixed-width values and identities are copied in place, allocating
// nothing; and the strings left (serving network names, SUCI fields, the
// SUPIs of the requests the benchmark builds) are copies, since a string
// header cannot express the loan, or interned ones.
func DecodeBinary(payload []byte, m Message) error {
	f := get(binDecode, payload)
	m.Fields(f)
	err := f.err
	if err == nil && f.off != len(payload) {
		err = fmt.Errorf("%w: %d byte(s) left", ErrTrailing, len(payload)-f.off)
	}
	f.finish(0, err == nil, nil)
	f.buf, f.err = nil, nil
	pool.Put(f)
	return err
}

// AppendJSON appends to dst exactly the bytes json.Marshal(m) returns:
// key order, omitempty, null for a nil byte string or list, padded
// standard base64, no trailing newline. A string that is not plain sends
// the whole message through encoding/json.
func AppendJSON(dst []byte, m Message) ([]byte, error) {
	if out, ok := appendJSON(dst, m); ok {
		return out, nil
	}
	// Cold fallback: a string encoding/json escapes.
	b, err := json.Marshal(m)
	return append(dst, b...), err
}

func appendJSON(dst []byte, m Message) ([]byte, bool) {
	f := get(jsonAppend, dst)
	f.appendObject(m)
	ok := !f.bad
	dst, f.buf, f.bad = f.buf, nil, false
	pool.Put(f)
	return dst, ok
}

// DecodeJSON decodes data into m with json.Unmarshal's result. The fast
// path takes an object of known keys in any order, plain strings, base64
// byte strings, null where encoding/json stores nil, and unsigned
// integers in range, with whitespace between tokens; an escape, a byte
// that is not plain, an unknown or duplicate key, any other value shape,
// malformed input or trailing data sends the whole body through
// encoding/json, which then also supplies the canonical error. Decoded
// byte strings share one fresh backing; nothing of data is retained.
func DecodeJSON(data []byte, m Message) error {
	if decodeJSON(data, m) {
		return nil
	}
	// Cold fallback: input outside the fast path's grammar.
	return json.Unmarshal(data, m)
}

func decodeJSON(data []byte, m Message) bool {
	f := get(jsonDecode, data)
	f.scratch = slices.Grow(f.scratch, base64.StdEncoding.DecodedLen(len(data)))
	f.decodeObject(m)
	f.ws()
	ok := !f.bad && f.off == len(data)
	f.finish(0, ok, nil)
	f.buf, f.bad, f.more, f.key, f.scratch = nil, false, false, nil, f.scratch[:0]
	if cap(f.scratch) > maxPooledScratch {
		f.scratch = nil
	}
	pool.Put(f)
	return ok
}

// finish gives the decoded message sole ownership of what it keeps: on
// success the owned byte strings since mark share buf's array when it
// holds them, one fresh backing otherwise, which finish returns; on
// failure it keeps none of them (they are views into the body or the
// pooled scratch).
func (f *Fields) finish(mark int, ok bool, buf []byte) []byte {
	if ok {
		buf = compact(buf, f.owned[mark:])
	} else {
		for _, p := range f.owned[mark:] {
			*p = nil
		}
	}
	clear(f.owned[mark:])
	f.owned = f.owned[:mark]
	return buf
}

// String describes a string field: uvarint length and bytes in a frame.
func (f *Fields) String(name string, p *string, fl Flag) {
	switch f.mode {
	case binAppend:
		f.buf = append(binary.AppendUvarint(f.buf, uint64(len(*p))), *p...)
	case binDecode:
		f.setString(p, f.take(f.uvarint()), fl)
	case jsonAppend:
		if *p != "" || fl&OmitEmpty == 0 {
			f.member(name)
			f.bad = f.bad || !plain(*p)
			f.buf = append(append(append(f.buf, '"'), *p...), '"')
		}
	case jsonDecode:
		if f.match(name) {
			f.setString(p, f.str(), fl)
			f.next(false)
		}
	}
}

// setString stores a copy of b, a view into the body, unless reading b
// failed.
func (f *Fields) setString(p *string, b []byte, fl Flag) {
	switch {
	case f.err != nil || f.bad:
	case fl&Intern != 0:
		*p = intern.Bytes(b)
	default:
		*p = string(b)
	}
}

// Bytes describes a byte-string field, nil-distinguishing in both
// formats: null or base64 in JSON; in a frame a uvarint 0 for nil, else
// the length plus one and the bytes. Keeping the nil/empty distinction is
// what lets the golden tests demand bit-identical structs from both.
func (f *Fields) Bytes(name string, p *[]byte, fl Flag) {
	switch f.mode {
	case binAppend:
		if *p == nil {
			f.buf = append(f.buf, 0)
			return
		}
		f.buf = append(binary.AppendUvarint(f.buf, uint64(len(*p))+1), *p...)
	case binDecode:
		*p = nil
		if n := f.uvarint(); n > 0 {
			*p = f.take(n - 1)
		}
		if f.own || fl&Own != 0 {
			f.owned = append(f.owned, p)
		}
	case jsonAppend:
		f.member(name)
		if *p == nil {
			f.buf = append(f.buf, "null"...)
			return
		}
		f.buf = append(base64.StdEncoding.AppendEncode(append(f.buf, '"'), *p), '"')
	case jsonDecode:
		if !f.match(name) {
			return
		}
		if f.null() {
			*p = nil
		} else if b := f.quoted(); !f.bad {
			// The decoder rejects every byte outside the base64 alphabet,
			// a stray backslash included, except CR and LF, which it
			// skips and JSON forbids: the length check catches those.
			off := len(f.scratch)
			f.scratch = f.scratch[:off+base64.StdEncoding.DecodedLen(len(b))]
			n, err := base64.StdEncoding.Decode(f.scratch[off:], b)
			f.bad = err != nil || base64.StdEncoding.EncodedLen(n) != len(b)
			f.scratch = f.scratch[:off+n]
			*p = f.scratch[off : off+n : off+n]
			f.owned = append(f.owned, p)
		}
		f.next(false)
	}
}

// Byte describes a uint8 field: a JSON number, one raw byte in a frame.
func (f *Fields) Byte(name string, p *byte) {
	switch f.mode {
	case binAppend:
		f.buf = append(f.buf, *p)
	case binDecode:
		*p = 0
		if b := f.take(1); len(b) == 1 {
			*p = b[0]
		}
	case jsonAppend:
		f.member(name)
		f.buf = strconv.AppendUint(f.buf, uint64(*p), 10)
	case jsonDecode:
		if f.match(name) {
			*p = byte(f.uint(math.MaxUint8))
			f.next(false)
		}
	}
}

// Int describes a signed integer field, an int or an int64 such as a
// time.Duration: a JSON number, its two's complement as a bare uvarint in
// a frame. Unlike a List's count it is not bounded by the payload that
// remains — no decode-side allocation is sized by it — so the handler
// bounds it. A negative number leaves the JSON fast path.
func Int[T ~int | ~int64](f *Fields, name string, p *T, fl Flag) {
	switch f.mode {
	case binAppend:
		f.buf = binary.AppendUvarint(f.buf, uint64(*p))
	case binDecode:
		*p = T(f.uvarint())
	case jsonAppend:
		if *p != 0 || fl&OmitEmpty == 0 {
			f.member(name)
			f.buf = strconv.AppendInt(f.buf, int64(*p), 10)
		}
	case jsonDecode:
		if f.match(name) {
			*p = T(f.uint(math.MaxInt))
			f.next(false)
		}
	}
}

// Uint describes a fixed-width unsigned integer field, a uint32 TEID or a
// uint64 SEID: a JSON number, its bytes big endian in a frame, so a frame
// holds one encoding of each value and none out of range.
func Uint[T ~uint32 | ~uint64](f *Fields, name string, p *T) {
	width := bits.Len64(uint64(^T(0))) / 8
	switch f.mode {
	case binAppend:
		for i := width - 1; i >= 0; i-- {
			f.buf = append(f.buf, byte(uint64(*p)>>(8*i)))
		}
	case binDecode:
		var v uint64
		for _, c := range f.take(uint64(width)) {
			v = v<<8 | uint64(c)
		}
		*p = T(v)
	case jsonAppend:
		f.member(name)
		f.buf = strconv.AppendUint(f.buf, uint64(*p), 10)
	case jsonDecode:
		if f.match(name) {
			*p = T(f.uint(uint64(^T(0))))
			f.next(false)
		}
	}
}

// Bool describes a bool field: JSON true or false, one byte, 0 or 1, in a
// frame; any other byte is ErrBool.
func (f *Fields) Bool(name string, p *bool, fl Flag) {
	switch f.mode {
	case binAppend:
		var b byte
		if *p {
			b = 1
		}
		f.buf = append(f.buf, b)
	case binDecode:
		b := f.take(1)
		*p = len(b) == 1 && b[0] == 1
		if len(b) == 1 && b[0] > 1 {
			f.fail(ErrBool)
		}
	case jsonAppend:
		if *p || fl&OmitEmpty == 0 {
			f.member(name)
			f.buf = strconv.AppendBool(f.buf, *p)
		}
	case jsonDecode:
		if f.match(name) {
			f.ws()
			switch rest := f.buf[f.off:]; {
			case bytes.HasPrefix(rest, []byte("true")):
				*p = true
				f.off += 4
			case bytes.HasPrefix(rest, []byte("false")):
				*p = false
				f.off += 5
			default:
				f.bad = true
			}
			f.next(false)
		}
	}
}

// Struct describes a nested message held by value: a JSON object, its
// fields inline in a frame. Own extends to every byte string below it.
func (f *Fields) Struct(name string, m Message, fl Flag) {
	own := f.own
	f.own = own || fl&Own != 0
	switch f.mode {
	case binAppend, binDecode:
		m.Fields(f)
	case jsonAppend:
		f.member(name)
		f.appendObject(m)
	case jsonDecode:
		if f.match(name) {
			f.decodeObject(m)
			f.next(false)
		}
	}
	f.own = own
}

// KeptPtr describes an optional nested message: JSON null (or, with
// OmitEmpty, no member) when nil, a presence byte in a frame. A decode
// keeps the target already there, as encoding/json does; with none, it
// takes the one k keeps (see Kept), or allocates one when k, which may be
// nil, keeps none. Every optional member of the core is a served
// request's SUCI, which its pair keeps.
func KeptPtr[T any, PT interface {
	*T
	Message
}](f *Fields, name string, p **T, fl Flag, k *Kept[T]) {
	switch f.mode {
	case binAppend:
		if *p == nil {
			f.buf = append(f.buf, 0)
			return
		}
		f.buf = append(f.buf, 1)
		PT(*p).Fields(f)
	case binDecode:
		if b := f.take(1); len(b) == 0 || b[0] == 0 {
			*p = nil
			return
		}
		if *p == nil {
			*p = k.takeOne()
		}
		PT(*p).Fields(f)
	case jsonAppend:
		if *p != nil {
			f.member(name)
			f.appendObject(PT(*p))
		} else if fl&OmitEmpty == 0 {
			f.member(name)
			f.buf = append(f.buf, "null"...)
		}
	case jsonDecode:
		if !f.match(name) {
			return
		}
		if f.null() {
			*p = nil
		} else {
			if *p == nil {
				*p = k.takeOne()
			}
			f.decodeObject(PT(*p))
		}
		f.next(false)
	}
}

// List describes a list of nested messages: a JSON array (null when
// nil), a count and the elements' fields in a frame, where an empty list
// decodes as nil. A decode counts the elements first and allocates their
// backing once. Each decoded element owns its byte strings' backing, so
// keeping one element does not pin the rest.
func List[T any, PT interface {
	*T
	Message
}](f *Fields, name string, p *[]T) {
	KeptList[T, PT](f, name, p, nil)
}

// KeptList is List for a message that keeps its list's backing in k: a
// decode takes its elements from k (Kept.Take) instead of a fresh array
// whenever k holds enough of them. Once k holds a backing (a served
// pair's message, after its first Scrub), a JSON decode also copies the
// whole list's byte strings into the one byte backing k keeps, instead of
// a backing per element.
func KeptList[T any, PT interface {
	*T
	Message
}](f *Fields, name string, p *[]T, k *Kept[T]) {
	switch f.mode {
	case binAppend:
		f.buf = binary.AppendUvarint(f.buf, uint64(len(*p)))
		for i := range *p {
			PT(&(*p)[i]).Fields(f)
		}
	case binDecode:
		*p = nil
		// The count is bounded by the elements the bytes that remain can
		// frame, so a hostile one cannot drive a huge allocation.
		if n := f.uvarint(); n > uint64((len(f.buf)-f.off)/zeroFrame[T, PT]()) {
			f.fail(ErrTruncated)
		} else if n > 0 {
			*p = k.Take(int(n))
		}
		for i := range *p {
			mark := len(f.owned)
			PT(&(*p)[i]).Fields(f)
			f.finish(mark, f.err == nil, nil)
		}
	case jsonAppend:
		f.member(name)
		if *p == nil {
			f.buf = append(f.buf, "null"...)
			return
		}
		f.buf = append(f.buf, '[')
		for i := range *p {
			if i > 0 {
				f.buf = append(f.buf, ',')
			}
			f.appendObject(PT(&(*p)[i]))
		}
		f.buf = append(f.buf, ']')
	case jsonDecode:
		if !f.match(name) {
			return
		}
		if f.null() {
			*p = nil
		} else if n := f.count(); !f.bad {
			kept := k != nil && k.s != nil
			s, mark := k.Take(n), len(f.owned)
			for i := range s {
				if i > 0 {
					f.expect(',')
				}
				f.decodeObject(PT(&s[i]))
				if !kept {
					f.finish(mark, !f.bad, nil)
				}
			}
			f.expect(']')
			if kept {
				k.b = f.finish(mark, !f.bad, k.b)
			}
			*p = s
		}
		f.next(false)
	}
}

// zeroFrames holds, by element type ((*T)(nil)), the length of a zero
// element's frame: the fewest bytes an element can take, since every kind
// frames its zero value in its fewest.
var zeroFrames sync.Map

func zeroFrame[T any, PT interface {
	*T
	Message
}]() int {
	key := any(PT(nil))
	if n, ok := zeroFrames.Load(key); ok {
		return n.(int)
	}
	n := max(len(AppendBinary(nil, PT(new(T)))), 1)
	zeroFrames.Store(key, n)
	return n
}

// count consumes a JSON array's '[' and returns how many elements follow,
// so a list's decode takes its backing once. An array that does not
// close, or that holds anything but brace-delimited elements separated by
// commas, leaves the fast path before anything is taken, so no body sizes
// a backing larger than a well-formed one of its length would. Strings
// are skipped whole, so a bracket inside one is no element; an escape
// ends the scan, as it would the decode.
func (f *Fields) count() int {
	if !f.expect('[') || f.peek(']') {
		return 0
	}
	n, depth, need, str := 0, 0, true, false
	for _, c := range f.buf[f.off:] {
		switch {
		case str && c == '\\':
			f.bad = true
			return 0
		case str:
			str = c != '"'
		case depth > 0:
			switch c {
			case '"':
				str = true
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		case need && c == '{':
			n, depth, need = n+1, 1, false
		case !need && c == ',':
			need = true
		case !need && c == ']':
			return n
		default:
			f.bad = true
			return 0
		}
	}
	f.bad = true
	return 0
}

func (f *Fields) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// uvarint reads a frame's uvarint.
func (f *Fields) uvarint() uint64 {
	if f.err != nil {
		return 0
	}
	v, n := binary.Uvarint(f.buf[f.off:])
	if n <= 0 {
		f.fail(ErrTruncated)
		return 0
	}
	f.off += n
	return v
}

// take reads a frame's next n bytes as a capacity-clamped view.
func (f *Fields) take(n uint64) []byte {
	if f.err != nil {
		return nil
	}
	if n > uint64(len(f.buf)-f.off) {
		f.fail(ErrTruncated)
		return nil
	}
	b := f.buf[f.off : f.off+int(n) : f.off+int(n)]
	f.off += int(n)
	return b
}

// plainByte marks the bytes encoding/json writes between quotes unchanged
// and reads back unchanged: printable ASCII without the quote, the
// backslash and the three characters it HTML-escapes.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// plain reports whether every byte of s is a plainByte.
func plain[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// member writes the separator and name of the next object member.
func (f *Fields) member(name string) {
	if !f.first {
		f.buf = append(f.buf, ',')
	}
	f.first = false
	f.buf = append(append(append(f.buf, '"'), name...), '"', ':')
}

func (f *Fields) appendObject(m Message) {
	first := f.first
	f.first = true
	f.buf = append(f.buf, '{')
	m.Fields(f)
	f.buf = append(f.buf, '}')
	f.first = first
}

// decodeObject decodes one JSON object into m. Each visit of m's fields
// claims the members that arrive in description order — all of them, for
// a body this package wrote — and further visits pick up reordered ones;
// a visit that claims nothing has met a key m does not describe.
func (f *Fields) decodeObject(m Message) {
	more, key, idx, seen := f.more, f.key, f.idx, f.seen
	f.more, f.seen = false, 0
	if f.expect('{') {
		f.next(true)
	}
	for f.more && !f.bad {
		before := f.seen
		f.idx = 0
		m.Fields(f)
		f.bad = f.bad || f.seen == before
	}
	f.more, f.key, f.idx, f.seen = more, key, idx, seen
}

// match reports whether the field being visited is the pending member,
// leaving the fast path if it was decoded before.
func (f *Fields) match(name string) bool {
	i := f.idx
	f.idx++
	if f.bad || !f.more || string(f.key) != name {
		return false
	}
	if i >= 32 || f.seen&(1<<i) != 0 {
		f.bad = true
		return false
	}
	f.seen |= 1 << i
	return true
}

// next moves past a member's value: to the next member's name, which it
// leaves pending in key, or out of the object.
func (f *Fields) next(first bool) {
	f.more = false
	if f.peek('}') {
		f.off++
		return
	}
	if !first && !f.expect(',') {
		return
	}
	f.key = f.str()
	f.more = f.expect(':')
}

func (f *Fields) ws() {
	for f.off < len(f.buf) {
		switch f.buf[f.off] {
		case ' ', '\t', '\n', '\r':
			f.off++
		default:
			return
		}
	}
}

// peek reports whether the next token starts with c.
func (f *Fields) peek(c byte) bool {
	f.ws()
	return !f.bad && f.off < len(f.buf) && f.buf[f.off] == c
}

// expect consumes the token c or leaves the fast path.
func (f *Fields) expect(c byte) bool {
	if f.peek(c) {
		f.off++
		return true
	}
	f.bad = true
	return false
}

// null consumes a null literal if one is next.
func (f *Fields) null() bool {
	f.ws()
	if f.bad || !bytes.HasPrefix(f.buf[f.off:], []byte("null")) {
		return false
	}
	f.off += 4
	return true
}

// quoted consumes a string up to the first quote and returns what lies
// between, a view into the body; whether that is the whole string is for
// the caller to establish.
func (f *Fields) quoted() []byte {
	if !f.expect('"') {
		return nil
	}
	rest := f.buf[f.off:]
	n := bytes.IndexByte(rest, '"')
	if n < 0 {
		f.bad = true
		return nil
	}
	f.off += n + 1
	return rest[:n:n]
}

// str consumes a plain string and returns its contents.
func (f *Fields) str() []byte {
	b := f.quoted()
	f.bad = f.bad || !plain(b)
	return b
}

// uint consumes an unsigned decimal integer no greater than max.
func (f *Fields) uint(max uint64) uint64 {
	f.ws()
	start, v, over := f.off, uint64(0), false
	for ; f.off < len(f.buf) && f.off-start < 20; f.off++ {
		c := f.buf[f.off]
		if c < '0' || c > '9' {
			break
		}
		hi, lo := bits.Mul64(v, 10)
		v = lo + uint64(c-'0')
		over = over || hi != 0 || v < lo
	}
	n := f.off - start
	// No digits, a leading zero, or a value out of range; what follows
	// the digits ('.', 'e', another digit) is for next to reject.
	if n == 0 || n > 1 && f.buf[start] == '0' || over || v > max {
		f.bad = true
	}
	return v
}
