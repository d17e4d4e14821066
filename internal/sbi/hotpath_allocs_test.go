//go:build !race

package sbi

import (
	"context"
	"testing"

	"shield5g/internal/sbi/codec"
)

// TestHotPathAllocs holds the SBI body path to exact allocation counts in
// both formats: an encoded body comes from the pool and goes back to it,
// a decode allocates only what the message keeps (binMsg's string and its
// owned blob), and a served request through binHandlerInto only what its
// request keeps. The body audit is on in this package's tests and costs
// nothing once its map holds a slot. sync.Pool drops items at random under
// the race detector, so this file builds only without -race; make ci runs
// it in its no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	in := &binMsg{Value: "imsi-001010000000001", Blob: []byte{5, 6, 7}}
	frame, err := MarshalBinary(in)
	if err != nil {
		t.Fatal(err)
	}
	body, err := MarshalBody(in)
	if err != nil {
		t.Fatal(err)
	}
	key := &keyMsg{K: codec.Bytes32{1, 2, 3}}
	keyFrame, err := MarshalBinary(key)
	if err != nil {
		t.Fatal(err)
	}
	keyBody, err := MarshalBody(key)
	if err != nil {
		t.Fatal(err)
	}
	echo := binHandlerInto(func(_ context.Context, req, resp *keyMsg) error {
		resp.K = req.K
		return nil
	})
	ctx := context.Background()
	var out binMsg
	for _, row := range []struct {
		name string
		want float64
		run  func() error
	}{
		{"MarshalBinary+ReleaseBody", 0, func() error { b, err := MarshalBinary(in); ReleaseBody(b); return err }},
		{"MarshalBody+ReleaseBody", 0, func() error { b, err := MarshalBody(in); ReleaseBody(b); return err }},
		{"marshalBodyLike(frame)+ReleaseBody", 0, func() error { b, err := marshalBodyLike(frame, in); ReleaseBody(b); return err }},
		{"marshalBodyLike(JSON)+ReleaseBody", 0, func() error { b, err := marshalBodyLike(body, in); ReleaseBody(b); return err }},
		{"decodeBody(frame)", 2, func() error { out = binMsg{}; return decodeBody(frame, &out) }},
		{"decodeBody(JSON)", 2, func() error { out = binMsg{}; return decodeBody(body, &out) }},
		{"UnmarshalBody", 2, func() error { out = binMsg{}; return UnmarshalBody(body, &out) }},
		{"binHandlerInto(frame)+ReleaseBody", 0, func() error { b, err := echo(ctx, keyFrame); ReleaseBody(b); return err }},
		{"binHandlerInto(JSON)+ReleaseBody", 0, func() error { b, err := echo(ctx, keyBody); ReleaseBody(b); return err }},
	} {
		var err error
		n := testing.AllocsPerRun(100, func() {
			if rerr := row.run(); rerr != nil {
				err = rerr
			}
		})
		if err != nil || n != row.want {
			t.Errorf("%s: %v allocs, err %v; want %v, nil", row.name, n, err, row.want)
		}
	}
	for _, b := range [][]byte{frame, body, keyFrame, keyBody} {
		ReleaseBody(b)
	}
}
