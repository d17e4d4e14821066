// Package hashpool provides reusable SHA-256 and HMAC-SHA-256 states for
// the registration hot path.
//
// Every 5G-AKA registration evaluates the TS 33.220 KDF and the ECIES MAC
// many times; the stdlib constructors (`sha256.New`, `hmac.New`) allocate a
// fresh state per call and `crypto/hmac` cannot be rekeyed, so the seed
// implementation paid five-plus heap allocations per MAC. This package
// keeps the states in sync.Pools and implements HMAC-SHA-256 manually
// (H(K XOR opad || H(K XOR ipad || msg)), FIPS 198-1) over two retained
// SHA-256 states so one state can serve many keys.
//
// Ownership rule: a Get*/Put* pair must bracket a single logical operation;
// pooled states must never be retained across calls or shared between
// goroutines. Both Put functions scrub before recycling — PutSHA256 rewinds
// the chaining value, PutHMAC also zeroes the key schedule — so the pools
// never hold a digest state keyed by, or halfway through, a secret input.
// What hash.Hash gives no way to clear is a state's block buffer: the
// unprocessed tail (under 64 bytes) of the last input stays until the next
// use overwrites it.
package hashpool

import (
	"crypto/sha256"
	"hash"
	"sync"
)

var shaPool = sync.Pool{New: func() any { return sha256.New() }}

// GetSHA256 returns a SHA-256 state from the pool, reset by sha256.New or
// by the PutSHA256 that pooled it.
func GetSHA256() hash.Hash { return shaPool.Get().(hash.Hash) }

// PutSHA256 resets and recycles a state obtained from GetSHA256, so the
// pool never holds a chaining value over a caller's input (the X9.63 KDF in
// suci hashes the ECDH shared secret). The caller must not use h afterwards.
func PutSHA256(h hash.Hash) {
	h.Reset()
	shaPool.Put(h)
}

// HMAC is a reusable HMAC-SHA-256 state. Unlike crypto/hmac it can be
// rekeyed in place via SetKey, which lets a pooled instance serve
// different keys without reallocating. Not safe for concurrent use.
type HMAC struct {
	inner, outer hash.Hash
	ipad, opad   [sha256.BlockSize]byte
	// sum and out buffer the inner and outer digests; fields rather than
	// locals so the interface calls inner.Sum/outer.Sum do not force a
	// heap allocation per invocation.
	sum [sha256.Size]byte
	out [sha256.Size]byte
}

// SetKey rekeys the state and resets it. Keys longer than the SHA-256
// block size are hashed first, matching crypto/hmac.
func (m *HMAC) SetKey(key []byte) {
	var k [sha256.BlockSize]byte
	if len(key) > len(k) {
		d := sha256.Sum256(key)
		copy(k[:], d[:])
	} else {
		copy(k[:], key)
	}
	for i := range k {
		m.ipad[i] = k[i] ^ 0x36
		m.opad[i] = k[i] ^ 0x5c
	}
	m.Reset()
}

// Reset restarts the MAC computation, keeping the current key.
func (m *HMAC) Reset() {
	m.inner.Reset()
	m.inner.Write(m.ipad[:])
}

// Write appends message bytes to the running MAC.
func (m *HMAC) Write(p []byte) (int, error) { return m.inner.Write(p) }

// Sum appends the 32-byte tag to dst and returns the result. The state
// must be Reset before computing another tag.
func (m *HMAC) Sum(dst []byte) []byte {
	inner := m.inner.Sum(m.sum[:0])
	m.outer.Reset()
	m.outer.Write(m.opad[:])
	m.outer.Write(inner)
	return m.outer.Sum(dst)
}

// SumInto writes the 32-byte tag into dst (which must hold at least
// sha256.Size bytes) without dst ever crossing a hash.Hash interface
// boundary, so a stack-allocated dst stays on the stack. The state must
// be Reset before computing another tag.
func (m *HMAC) SumInto(dst []byte) {
	inner := m.inner.Sum(m.sum[:0])
	m.outer.Reset()
	m.outer.Write(m.opad[:])
	m.outer.Write(inner)
	copy(dst, m.outer.Sum(m.out[:0]))
}

var hmacPool = sync.Pool{New: func() any {
	return &HMAC{inner: sha256.New(), outer: sha256.New()}
}}

// GetHMAC returns a pooled HMAC keyed with key, ready for Write/Sum.
func GetHMAC(key []byte) *HMAC {
	m := hmacPool.Get().(*HMAC)
	m.SetKey(key)
	return m
}

// PutHMAC scrubs the key schedule and recycles the state. The caller must
// not use m afterwards.
func PutHMAC(m *HMAC) {
	m.inner.Reset()
	m.outer.Reset()
	m.ipad = [sha256.BlockSize]byte{}
	m.opad = [sha256.BlockSize]byte{}
	m.sum = [sha256.Size]byte{}
	m.out = [sha256.Size]byte{}
	hmacPool.Put(m)
}
