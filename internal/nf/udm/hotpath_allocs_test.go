//go:build !race

package udm

import (
	"context"
	"runtime/debug"
	"testing"

	"shield5g/internal/crypto/suci"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/simclock"
)

// TestHotPathAllocs holds an AV pool refill to an exact allocation count,
// at its two entry points: the request batch for eight vectors
// (avRequestBatch), which leaves only the UDR answer's backing the client
// owns, its RAND backing and items being the refill's pooled scratch; and
// a whole pooled miss through handleGenerateAuthData, first contact
// (two vectors) and steady state (the depth, eight), in each format. A
// miss is left with what the pool banks (one ring), one SUPI string per
// item the eUDM decodes, the key schedule, the UDR answer's backing and
// the vectors the eUDM answers with; the served pairs keep the rest, the
// items' byte strings a JSON body carries among it, and a decode counts
// the vectors before it takes their backing, so JSON costs what frames
// do. The posts charge one account, as a served registration's do.
// With the collector off no sync.Pool is emptied mid-count; pools still
// drop items at random under the race detector, so this file builds only
// without -race; make ci runs it in its no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := simclock.WithAccount(context.Background(), new(simclock.Account))
	h := newHarness(t)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)
	id, text := value(t, supi), supi.String()
	var err error
	var r refill
	batch := func() {
		if _, berr := h.udm.avRequestBatch(ctx, id, text, testSNN, 8, &r); berr != nil {
			err = berr
		}
	}
	batch()
	if n := testing.AllocsPerRun(100, batch); err != nil || n != 1 {
		t.Errorf("avRequestBatch(8): %v allocs, err %v; want 1, nil", n, err)
	}

	for _, row := range []struct {
		frames bool
		count  int
		want   float64
	}{
		{frames: true, count: 2, want: 6},
		{frames: true, count: 8, want: 12},
		{frames: false, count: 2, want: 6},
		{frames: false, count: 8, want: 12},
	} {
		p := newPoolHarness(t, 8)
		p.provision(t, supi)
		if row.frames {
			p.fns.Invoker.(*sbi.Client).EnableBinary()
		}
		req := &GenerateAuthDataRequest{SUPI: text, ServingNetworkName: testSNN}
		miss := func() {
			// Forget the SUPI for a first contact, empty its ring for a
			// steady-state miss.
			p.udm.pool.mu.Lock()
			if row.count == 2 {
				delete(p.udm.pool.rings, id)
			} else {
				p.udm.pool.rings[id] = nil
			}
			p.udm.pool.mu.Unlock()
			var resp GenerateAuthDataResponse
			if herr := p.udm.handleGenerateAuthData(ctx, req, &resp); herr != nil {
				err = herr
			}
		}
		miss()
		if n := testing.AllocsPerRun(100, miss); err != nil || n != row.want {
			t.Errorf("pooled miss minting %d (frames %v): %v allocs, err %v; want %v, nil", row.count, row.frames, n, err, row.want)
		}
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
