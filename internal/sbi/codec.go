package sbi

import (
	"sync"

	"shield5g/internal/sbi/codec"
)

// SBI bodies. Every SBI message carries a field description
// (codec.Message) and is encoded and decoded from it, in JSON as in binary
// frames, without reflection; bodies travel in pooled buffers that
// ReleaseBody recycles. Every endpoint is served one way, Answer, and
// fills the response it is handed.
//
// Ownership contract: a []byte returned by MarshalBody (and, by the
// HandlerFunc contract, any handler-returned body) is owned by exactly
// one party at a time. Whoever consumes it last calls ReleaseBody; after
// that the bytes must not be touched. The encoded bytes are json.Marshal's,
// so the modelled per-byte TLS/HTTP costs do not depend on which codec
// wrote them.
//
// The contract is checked where it runs: in every -race build and in this
// package's tests the pool audit (audit.go) counts bodies handed out and
// not released, panics on a second release and on a write to a released
// body, and poisons what is released so that a late read decodes garbage.

// bufPool recycles body backing arrays. Bodies here are small (an AV
// response is ~300 bytes of JSON); one size class is enough.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	if auditPool {
		// A new array enters the pool the way a released one does.
		auditRelease(b)
	}
	return &b
}}

func getBuf() []byte {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	*bp = nil
	boxPool.Put(bp)
	if auditPool {
		auditDraw(b)
	}
	return b
}

// boxPool recycles the *[]byte boxes themselves so getBuf/ReleaseBody
// don't allocate a fresh box per donation.
var boxPool = sync.Pool{New: func() any { return new([]byte) }}

// MarshalBody encodes m exactly as json.Marshal does into a pooled body
// buffer. The returned slice is owned by the caller; pass it to
// ReleaseBody when done to recycle the backing array.
func MarshalBody(m codec.Message) ([]byte, error) {
	buf := getBuf()
	out, err := codec.AppendJSON(buf, m)
	if err != nil {
		ReleaseBody(buf)
		return nil, err
	}
	if auditPool {
		auditOwn(out)
	}
	return out, nil
}

// maxPooledBodyCap bounds the backing arrays ReleaseBody donates back to
// bufPool. Response reads can hand in buffers up to the 1 MiB transport
// limit; pooling those would pin megabytes to serve ~300-byte encodes, so
// oversized arrays are left to the GC instead.
const maxPooledBodyCap = 4096

// ReleaseBody donates b's backing array to the encode pool. The caller
// must own b exclusively and must not touch it afterwards. nil,
// zero-capacity and oversized slices are ignored.
func ReleaseBody(b []byte) {
	if cap(b) == 0 {
		return
	}
	if auditPool {
		auditRelease(b)
	}
	if cap(b) > maxPooledBodyCap {
		return
	}
	bp := boxPool.Get().(*[]byte)
	*bp = b[:0]
	bufPool.Put(bp)
}
