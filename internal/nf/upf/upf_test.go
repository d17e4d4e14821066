package upf

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

func harness(t *testing.T) (*UPF, *sbi.Client) {
	t.Helper()
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	u, err := New(env, reg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return u, sbi.NewClient("smf", env, reg)
}

func establish(t *testing.T, c *sbi.Client, seid uint64, addr string) uint32 {
	t.Helper()
	var resp EstablishResponse
	if err := c.Post(context.Background(), ServiceName, PathEstablish,
		&EstablishRequest{SEID: seid, UEAddress: addr}, &resp); err != nil {
		t.Fatalf("Establish: %v", err)
	}
	return resp.TEID
}

func TestEstablishAndForward(t *testing.T) {
	u, c := harness(t)
	teid := establish(t, c, 1, "10.60.0.2")
	if teid == 0 {
		t.Fatal("zero TEID")
	}
	if u.SessionCount() != 1 {
		t.Fatalf("SessionCount = %d", u.SessionCount())
	}
	echo, err := u.ForwardUplink(context.Background(), teid, []byte("ping"))
	if err != nil {
		t.Fatalf("ForwardUplink: %v", err)
	}
	if !bytes.Contains(echo, []byte("ping")) {
		t.Fatalf("echo = %q", echo)
	}
}

func TestForwardChargesDataPath(t *testing.T) {
	u, c := harness(t)
	teid := establish(t, c, 1, "10.60.0.2")
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	if _, err := u.ForwardUplink(ctx, teid, bytes.Repeat([]byte{1}, 1000)); err != nil {
		t.Fatalf("ForwardUplink: %v", err)
	}
	if acct.Total() == 0 {
		t.Fatal("data path charged nothing")
	}
}

func TestForwardUnknownTEID(t *testing.T) {
	u, _ := harness(t)
	if _, err := u.ForwardUplink(context.Background(), 77, []byte("x")); err == nil {
		t.Fatal("unknown TEID forwarded")
	}
}

func TestEstablishValidation(t *testing.T) {
	_, c := harness(t)
	var pd *sbi.ProblemDetails
	err := c.Post(context.Background(), ServiceName, PathEstablish, &EstablishRequest{SEID: 1}, nil)
	if !errors.As(err, &pd) || pd.Status != 400 {
		t.Fatalf("missing address err = %v", err)
	}
}

func TestEstablishDuplicateSEID(t *testing.T) {
	_, c := harness(t)
	establish(t, c, 1, "10.60.0.2")
	var pd *sbi.ProblemDetails
	err := c.Post(context.Background(), ServiceName, PathEstablish,
		&EstablishRequest{SEID: 1, UEAddress: "10.60.0.3"}, nil)
	if !errors.As(err, &pd) || pd.Status != 409 {
		t.Fatalf("dup SEID err = %v, want 409", err)
	}
}

func TestRelease(t *testing.T) {
	u, c := harness(t)
	teid := establish(t, c, 1, "10.60.0.2")
	if err := c.Post(context.Background(), ServiceName, PathRelease, &ReleaseRequest{SEID: 1}, nil); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if u.SessionCount() != 0 {
		t.Fatalf("SessionCount = %d", u.SessionCount())
	}
	if _, err := u.ForwardUplink(context.Background(), teid, []byte("x")); err == nil {
		t.Fatal("released session forwarded")
	}
	var pd *sbi.ProblemDetails
	err := c.Post(context.Background(), ServiceName, PathRelease, &ReleaseRequest{SEID: 1}, nil)
	if !errors.As(err, &pd) || pd.Status != 404 {
		t.Fatalf("double release err = %v, want 404", err)
	}
}
