//go:build !race

package milenage

import "testing"

// TestHotPathAllocs holds the AV functions to zero heap allocations into
// caller-owned outputs, and a cache hit to none. sync.Pool drops items at
// random under the race detector, so this file builds only without -race;
// make ci runs it in its no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	k, opc := mustHex(t, testSet1.k), mustHex(t, testSet1.opc)
	rand, sqn, amf := mustHex(t, testSet1.rand), mustHex(t, testSet1.sqn), mustHex(t, testSet1.amf)
	c := newTestCipher(t)
	cache := NewCache()
	if _, err := cache.Get("imsi-001010000000001", k, opc); err != nil {
		t.Fatal(err)
	}
	var out [48]byte
	for _, row := range []struct {
		name string
		run  func() error
	}{
		{"F1Into", func() error { return c.F1Into(out[:16], rand, sqn, amf) }},
		{"F2345Into", func() error { _, _, _, _, err := c.F2345Into(out[:], rand); return err }},
		{"Cache.Get hit", func() error { _, err := cache.Get("imsi-001010000000001", k, opc); return err }},
	} {
		var err error
		n := testing.AllocsPerRun(100, func() {
			if rerr := row.run(); rerr != nil {
				err = rerr
			}
		})
		if err != nil || n != 0 {
			t.Errorf("%s: %v allocs, err %v; want 0, nil", row.name, n, err)
		}
	}
}
