// Package intern provides a bounded process-wide string intern table
// for protocol constants. Values like PLMN digits (MCC/MNC), routing
// indicators and serving network names repeat on every registration;
// canonicalising them through one table makes decoding them
// allocation-free after first sight.
//
// Per-subscriber identities are not for this table. The SBI carries a
// SUPI or an auth-context ID as a fixed-width value (codec.SUPI,
// codec.AuthCtxID) that decodes in place without it; a SUPI still sent
// as a string is unique, and the table caps both entry length and entry
// count, so interning such high-cardinality input would only churn it up
// to the cap, after which lookups miss and the caller pays the
// allocation it would have paid anyway.
package intern

import "sync"

const (
	// maxLen is the longest byte string the table will admit; anything
	// longer is returned as a fresh string.
	maxLen = 64
	// maxEntries bounds the table. A fleet's worth of protocol
	// constants is dozens; 1024 leaves generous headroom while keeping
	// the worst-case footprint at maxEntries*maxLen bytes.
	maxEntries = 1024
)

var table = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string, 64)}

// Bytes returns b as a canonical string. The string(b) map key
// conversion does not allocate on lookup, so a hit costs zero
// allocations.
func Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxLen {
		return string(b)
	}
	table.RLock()
	s, ok := table.m[string(b)]
	table.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	table.Lock()
	if len(table.m) < maxEntries {
		table.m[s] = s
	}
	table.Unlock()
	return s
}
