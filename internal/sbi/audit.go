package sbi

import (
	"sync"

	"shield5g/internal/race"
)

// The body-pool audit checks the single-owner contract of codec.go on the
// executions the tests and `make ci` actually run, not on a model of the
// source. It is on in every -race build and in this package's own test
// binary (export_test.go), off elsewhere, where each pool operation pays
// one predictable branch on auditPool.
//
// With it on, every body MarshalBody or MarshalBinary returns is recorded
// as owned until ReleaseBody sees it, ReleaseBody fills the released array
// with poisonByte, and getBuf requires an array from the pool to be all
// poison still. So a missing release shows in OutstandingBodies, a second
// release and a write through a retained view panic, and a read through a
// retained view (or of a body released too early) reads poison: a decode
// error or a wrong field in whichever test reads it, and a data race under
// -race when another goroutine does. What the audit cannot see is a
// retained view that nobody reads.
var auditPool = race.Enabled

const poisonByte = 0xDB

var audit struct {
	sync.Mutex
	// owned holds the first byte of each body handed out and not yet
	// released. Keyed by the array, not by getBuf's draw: an encode that
	// outgrows its pooled array returns a different one.
	owned map[*byte]struct{}
}

// auditOwn records b as handed to a caller who now owes one ReleaseBody.
func auditOwn(b []byte) {
	audit.Lock()
	if audit.owned == nil {
		audit.owned = make(map[*byte]struct{})
	}
	audit.owned[&b[:1][0]] = struct{}{}
	audit.Unlock()
}

// auditRelease ends b's ownership and poisons its array. Arrays no
// Marshal call handed out (an io.ReadAll response, a fresh pool entry) are
// poisoned alike; one that is unowned and already all poison has been
// released before and not drawn since.
func auditRelease(b []byte) {
	array := b[:cap(b)]
	audit.Lock()
	_, owned := audit.owned[&array[0]]
	delete(audit.owned, &array[0])
	audit.Unlock()
	if !owned && allPoison(array) {
		panic("sbi: body released twice")
	}
	for i := range array {
		array[i] = poisonByte
	}
}

// auditDraw checks that nothing wrote to a pooled array while the pool
// held it, then zeroes it so that only a released array is ever all poison.
func auditDraw(b []byte) {
	array := b[:cap(b)]
	if !allPoison(array) {
		panic("sbi: pooled body written after release")
	}
	clear(array)
}

func allPoison(array []byte) bool {
	for _, c := range array {
		if c != poisonByte {
			return false
		}
	}
	return true
}

// OutstandingBodies is the audit's count of bodies handed out by
// MarshalBody / MarshalBinary and not yet passed to ReleaseBody: zero
// whenever no SBI request is in flight. It is meaningful only while the
// audit is on — in -race builds and in this package's tests; elsewhere
// nothing is counted and it reads 0.
func OutstandingBodies() int {
	audit.Lock()
	defer audit.Unlock()
	return len(audit.owned)
}
