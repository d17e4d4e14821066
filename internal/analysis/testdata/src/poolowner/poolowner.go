// Package poolowner is a shieldlint fixture for the pooled-ownership
// analyzer: sbi bodies and hashpool states must be released exactly
// once on every path, never used after release, and loaned handler
// views must not escape. The interprocedural cases (ownership transfer
// through a releasing helper, pooled results through a wrapper) ride on
// the call-graph summary store.
package poolowner

import (
	"context"
	"errors"

	"shield5g/internal/crypto/hashpool"
	"shield5g/internal/sbi"
)

var errTooBig = errors.New("too big")

// use borrows the body: its summary proves it neither releases nor
// stores it, so callers keep ownership across the call.
func use(b []byte) int { return len(b) }

// --- clean baselines: no findings expected ---

func cleanRoundTrip(v any) error {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return err
	}
	defer sbi.ReleaseBody(body)
	use(body)
	return nil
}

func cleanDigest(data []byte) []byte {
	h := hashpool.GetSHA256()
	h.Write(data)
	out := h.Sum(nil)
	hashpool.PutSHA256(h)
	return out
}

func resliceClean(v any) {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return
	}
	body = body[:0]
	sbi.ReleaseBody(body)
}

// storeGlobal hands the body to package-level state: ownership leaves
// the function, tracking stops, and no finding is reported.
var sink []byte

func storeGlobal(v any) {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return
	}
	sink = body
}

// --- use after release ---

func useAfterRelease(v any) int {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return 0
	}
	sbi.ReleaseBody(body)
	return use(body) // want "use after release"
}

func aliasUseAfter(data []byte) {
	h := hashpool.GetSHA256()
	g := h
	hashpool.PutSHA256(g)
	h.Write(data) // want "use after release"
}

// loopUseAfter releases inside a loop: the second iteration touches and
// re-releases a dead object, and the zero-iteration path leaks it.
func loopUseAfter(v any, n int) {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return
	}
	for i := 0; i < n; i++ {
		use(body)             // want "use after release"
		sbi.ReleaseBody(body) // want "double release"
	}
} // want "released on some paths"

// --- double release ---

func doubleRelease(v any) {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return
	}
	sbi.ReleaseBody(body)
	sbi.ReleaseBody(body) // want "double release"
}

func deferredDoubleRelease(v any) error {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return err
	}
	defer sbi.ReleaseBody(body)
	use(body)
	sbi.ReleaseBody(body) // want "double release"
	return nil
}

// --- missing release on early-return / error paths ---

func missingOnErrorPath(v any, n int) error {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return err // the err != nil branch owns nothing: no finding here
	}
	if n > 0 {
		return errTooBig // want "missing release"
	}
	sbi.ReleaseBody(body)
	return nil
}

func releasedOnSomePaths(v any, ok bool) {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return
	}
	if ok {
		sbi.ReleaseBody(body)
	}
} // want "released on some paths"

func hashLeak(key []byte) {
	m := hashpool.GetHMAC(key)
	m.Write(key)
} // want "missing release"

func discarded(v any) {
	sbi.MarshalBody(v) // want "leaked acquisition"
}

// suppressedLeak demonstrates the sanctioned escape hatch: the
// annotation keeps the finding (as suppressed) so the load-bearing test
// can verify it.
func suppressedLeak(v any) {
	body, _ := sbi.MarshalBody(v)
	use(body)
	//shieldlint:ignore poolowner fixture exercises annotation suppression
} // want:suppressed "missing release"

// --- interprocedural: ownership transfer through a callee summary ---

// finish consumes the body: it releases its parameter on every path, so
// callers transfer ownership at the call site.
func finish(body []byte) int {
	n := len(body)
	sbi.ReleaseBody(body)
	return n
}

func cleanTransfer(v any) int {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return 0
	}
	return finish(body)
}

func transferThenUse(v any) int {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return 0
	}
	n := finish(body)
	return n + use(body) // want "use after release"
}

func transferThenRelease(v any) {
	body, err := sbi.MarshalBody(v)
	if err != nil {
		return
	}
	finish(body)
	sbi.ReleaseBody(body) // want "double release"
}

// --- interprocedural: pooled results through a wrapper ---

// marshalWrapped forwards a fresh pooled body to its caller; its
// summary marks result 0 as pooled, so callers inherit the release
// obligation.
func marshalWrapped(v any) ([]byte, error) {
	return sbi.MarshalBody(v)
}

func wrapperClean(v any) error {
	body, err := marshalWrapped(v)
	if err != nil {
		return err
	}
	defer sbi.ReleaseBody(body)
	use(body)
	return nil
}

func wrapperLeak(v any, n int) error {
	body, err := marshalWrapped(v)
	if err != nil {
		return err
	}
	if n > 0 {
		return errTooBig // want "missing release"
	}
	sbi.ReleaseBody(body)
	return nil
}

// --- loaned views: handler bodies and BinHandler requests ---

var stash []byte

func register(srv *sbi.Server, ch chan []byte) {
	srv.HandleDual("/echo", echoLoan)
	srv.HandleDual("/stash", stashLoan)
	srv.HandleDual("/go", goLoan)
	srv.HandleDual("/release", releaseLoan)
	srv.HandleDual("/ok", okHandler)
	srv.HandleDual("/chan", func(ctx context.Context, body []byte) ([]byte, error) {
		ch <- body // want "escapes via channel send"
		return nil, nil
	})
}

func echoLoan(ctx context.Context, body []byte) ([]byte, error) {
	return body, nil // want "must not be returned"
}

func stashLoan(ctx context.Context, body []byte) ([]byte, error) {
	stash = body // want "escapes via store"
	return nil, nil
}

func goLoan(ctx context.Context, body []byte) ([]byte, error) {
	go use(body) // want "escapes into a goroutine"
	return nil, nil
}

func releaseLoan(ctx context.Context, body []byte) ([]byte, error) {
	sbi.ReleaseBody(body) // want "must not be released by the handler"
	return nil, nil
}

// okHandler owns its response body and hands it to the transport: the
// loan is only read, never retained.
func okHandler(ctx context.Context, body []byte) ([]byte, error) {
	out, err := sbi.MarshalBody(use(body))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- BinHandler: the typed request struct is a loaned decode view ---

type binReq struct{ Data []byte }
type binResp struct{ N int }

func registerBin() (sbi.HandlerFunc, sbi.HandlerFunc) {
	return sbi.BinHandler(escapingBinHandler), sbi.BinHandler(cleanBinHandler)
}

func escapingBinHandler(ctx context.Context, req *binReq) (*binReq, error) {
	return req, nil // want "must not be returned"
}

func cleanBinHandler(ctx context.Context, req *binReq) (*binResp, error) {
	return &binResp{N: len(req.Data)}, nil
}
