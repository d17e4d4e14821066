//go:build !race

package ausf

import (
	"context"
	"crypto/rand"
	"runtime/debug"
	"testing"

	"shield5g/internal/crypto/kdf"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/sbi/codec"
)

// TestHotPathAllocs holds one authentication and its confirmation —
// newChallenge behind the UDM's answer and the eAUSF's DeriveSE, then the
// one-shot redemption — to an exact allocation count, the clients' decodes
// included: by SUPI on the JSON SBI, and by a fresh SUCI over frames, which
// the AUSF and the UDM each decode into their pair's kept SUCI, its scheme
// output a view into the body, before the UDM de-conceals it. With the
// collector off no sync.Pool is emptied mid-count; pools still drop items
// at random under the race detector, so this file builds only without
// -race; make ci runs it in its no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	const want, wantSUCIFrames = 8, 13
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := newHarness(t)
	ctx := context.Background()
	req := &AuthenticateRequest{SUPI: h.supi.String(), ServingNetworkName: testSNN}
	var err error
	authenticate := func() {
		auth, aerr := h.client.Authenticate(ctx, req)
		if aerr != nil {
			err = aerr
			return
		}
		var out [48]byte
		var resStar codec.Bytes16
		res, ck, ik, _, _ := h.mil.F2345Into(out[:], auth.RAND[:])
		if rerr := kdf.ResStarInto(resStar[:], ck, ik, testSNN, auth.RAND[:], res); rerr != nil {
			err = rerr
			return
		}
		if _, cerr := h.client.Confirm(ctx, &ConfirmRequest{AuthCtxID: auth.AuthCtxID, ResStar: resStar}); cerr != nil {
			err = cerr
		}
	}
	authenticate()
	if n := testing.AllocsPerRun(100, authenticate); err != nil || n != want {
		t.Errorf("Authenticate+Confirm: %v allocs, err %v; want %d, nil", n, err, want)
	}

	concealed, err := suci.Conceal(rand.Reader, h.supi, "0000", h.hnKey.PublicKey(), h.hnKey.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range h.invokers {
		c.EnableBinary()
	}
	req = &AuthenticateRequest{SUCI: concealed, ServingNetworkName: testSNN}
	authenticate()
	if n := testing.AllocsPerRun(100, authenticate); err != nil || n != wantSUCIFrames {
		t.Errorf("Authenticate by SUCI+Confirm over frames: %v allocs, err %v; want %d, nil", n, err, wantSUCIFrames)
	}

	// Decoding a message that carries an identity allocates nothing for
	// it: the SUPI and the auth-context ID are decoded in place. The one
	// allocation left is a JSON body's byte-string backing (AUTS).
	var id codec.AuthCtxID
	if err := id.UnmarshalText([]byte("0000000000000001")); err != nil {
		t.Fatal(err)
	}
	supi, err := codec.ParseSUPI(h.supi.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		msg, into  codec.Message
		bin, jsonN float64
	}{
		{&AuthenticateResponse{AuthCtxID: id, RAND: codec.Bytes16{1}}, new(AuthenticateResponse), 0, 0},
		{&ConfirmRequest{AuthCtxID: id, ResStar: codec.Bytes16{2}}, new(ConfirmRequest), 0, 0},
		{&ConfirmResponse{SUPI: supi, KSEAF: codec.Bytes32{3}}, new(ConfirmResponse), 0, 0},
		{&ResyncRequest{AuthCtxID: id, AUTS: make([]byte, 14)}, new(ResyncRequest), 0, 1},
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
