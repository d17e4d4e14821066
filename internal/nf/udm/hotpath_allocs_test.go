//go:build !race

package udm

import (
	"context"
	"runtime/debug"
	"testing"

	"shield5g/internal/crypto/suci"
)

// TestHotPathAllocs holds an AV pool refill's request batch, the UDR's
// next authentication data for eight vectors and the batch built from it,
// to an exact allocation count: the UDR's request and JSON answer, then
// one RAND backing and one item slice. With the collector off no sync.Pool is
// emptied mid-count; pools still drop items at random under the race
// detector, so this file builds only without -race; make ci runs it on its
// no-race allocation line.
func TestHotPathAllocs(t *testing.T) {
	const want = 14
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := newHarness(t)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)
	ctx := context.Background()
	var err error
	batch := func() {
		if _, berr := h.udm.avRequestBatch(ctx, supi.String(), testSNN, 8); berr != nil {
			err = berr
		}
	}
	batch()
	if n := testing.AllocsPerRun(100, batch); err != nil || n != want {
		t.Errorf("avRequestBatch(8): %v allocs, err %v; want %d, nil", n, err, want)
	}
}
