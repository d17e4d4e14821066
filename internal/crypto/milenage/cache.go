package milenage

import (
	"crypto/subtle"
	"sync"
)

// Cache memoizes per-subscriber Cipher values, so a caller does not
// re-expand the AES key schedule (aes.NewCipher) on every evaluation.
// Entries are keyed by subscriber identifier (SUPI) and validated against
// the (K, OPc) pair they were built from: a lookup whose credentials no
// longer match rebuilds the entry in place, so a re-provisioned key can
// never be served a stale schedule even if the owner forgets Invalidate.
//
// The core does not use it: an entry is an expanded copy of K kept for as
// long as the cache lives, about 630 B per subscriber, to save one key
// expansion per AV request. The eUDM builds a Cipher per procedure instead
// (DESIGN.md §9). The benchmark's cached-AV probe is its remaining caller.
type Cache struct {
	mu sync.RWMutex
	m  map[string]*cacheEntry
}

type cacheEntry struct {
	k   [KeyLen]byte
	opc [OPLen]byte
	c   *Cipher
}

// NewCache returns an empty cache, safe for concurrent use.
func NewCache() *Cache {
	return &Cache{m: make(map[string]*cacheEntry)}
}

// Get returns the Cipher for subscriber id with credentials (k, opc),
// reusing the cached key schedule when the credentials still match and
// building (and caching) a fresh one otherwise. A nil receiver always
// builds fresh, so callers can treat the cache as optional.
//
//shieldlint:hotpath
func (cc *Cache) Get(id string, k, opc []byte) (*Cipher, error) {
	if cc == nil {
		return New(k, opc)
	}
	cc.mu.RLock()
	e := cc.m[id]
	cc.mu.RUnlock()
	if e != nil && len(k) == KeyLen && len(opc) == OPLen &&
		subtle.ConstantTimeCompare(e.k[:], k) == 1 &&
		subtle.ConstantTimeCompare(e.opc[:], opc) == 1 {
		return e.c, nil
	}
	c, err := New(k, opc)
	if err != nil {
		return nil, err
	}
	e = &cacheEntry{c: c}
	copy(e.k[:], k)
	copy(e.opc[:], opc)
	cc.mu.Lock()
	cc.m[id] = e
	cc.mu.Unlock()
	return c, nil
}

// Invalidate drops the entry for id; the next Get rebuilds it.
func (cc *Cache) Invalidate(id string) {
	if cc == nil {
		return
	}
	cc.mu.Lock()
	delete(cc.m, id)
	cc.mu.Unlock()
}

// Reset drops every entry.
func (cc *Cache) Reset() {
	if cc == nil {
		return
	}
	cc.mu.Lock()
	cc.m = make(map[string]*cacheEntry)
	cc.mu.Unlock()
}
