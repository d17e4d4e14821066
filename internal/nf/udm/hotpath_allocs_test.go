//go:build !race

package udm

import (
	"context"
	"runtime/debug"
	"testing"

	"shield5g/internal/crypto/suci"
	"shield5g/internal/sbi/codec"
)

// TestHotPathAllocs holds an AV pool refill's request batch, the UDR's
// next authentication data for eight vectors and the batch built from it,
// to an exact allocation count: the UDR's JSON answer, then one RAND
// backing and one item slice. With the collector off no sync.Pool is
// emptied mid-count; pools still drop items at random under the race
// detector, so this file builds only without -race; make ci runs it in its
// no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	const want = 9
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := newHarness(t)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)
	ctx := context.Background()
	id, text := value(t, supi), supi.String()
	var err error
	batch := func() {
		if _, berr := h.udm.avRequestBatch(ctx, id, text, testSNN, 8); berr != nil {
			err = berr
		}
	}
	batch()
	if n := testing.AllocsPerRun(100, batch); err != nil || n != want {
		t.Errorf("avRequestBatch(8): %v allocs, err %v; want %d, nil", n, err, want)
	}

	// Decoding a message that carries a SUPI allocates nothing for it: the
	// SUPI is decoded in place. The one allocation left is a JSON body's
	// byte-string backing (RAND, AUTS).
	for _, row := range []struct {
		msg, into  codec.Message
		bin, jsonN float64
	}{
		{&GenerateAuthDataResponse{SUPI: id, RAND: codec.Bytes16{1}}, new(GenerateAuthDataResponse), 0, 0},
		{&ResyncRequest{SUPI: id, RAND: make([]byte, 16), AUTS: make([]byte, 14)}, new(ResyncRequest), 0, 1},
	} {
		payload := codec.AppendBinary(nil, row.msg)
		body, err := codec.AppendJSON(nil, row.msg)
		if err != nil {
			t.Fatal(err)
		}
		bin := testing.AllocsPerRun(100, func() { err = codec.DecodeBinary(payload, row.into) })
		jsonN := testing.AllocsPerRun(100, func() { err = codec.DecodeJSON(body, row.into) })
		if err != nil || bin != row.bin || jsonN != row.jsonN {
			t.Errorf("decode %T: %v allocs from a frame, %v from JSON, err %v; want %v, %v, nil", row.into, bin, jsonN, err, row.bin, row.jsonN)
		}
	}
}
