//go:build !race

package ausf

import (
	"context"
	"runtime/debug"
	"testing"

	"shield5g/internal/crypto/kdf"
	"shield5g/internal/sbi/codec"
)

// TestHotPathAllocs holds one authentication by SUPI and its confirmation
// — newChallenge behind the UDM's answer and the eAUSF's DeriveSE, then
// the one-shot redemption — to an exact allocation count on the JSON SBI,
// the clients' decodes included. With the collector off no sync.Pool is emptied
// mid-count; pools still drop items at random under the race detector, so
// this file builds only without -race; make ci runs it on its no-race
// allocation line.
func TestHotPathAllocs(t *testing.T) {
	const want = 57
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
}
