package smf

import (
	"context"
	"errors"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/upf"
	"shield5g/internal/sbi"
)

func harness(t *testing.T) (*SMF, *upf.UPF, *Client) {
	t.Helper()
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	if _, err := nrf.New(env, reg); err != nil {
		t.Fatalf("nrf.New: %v", err)
	}
	u, err := upf.New(env, reg)
	if err != nil {
		t.Fatalf("upf.New: %v", err)
	}
	s, err := New(context.Background(), Config{Env: env, Registry: reg, Invoker: sbi.NewClient("smf", env, reg)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, u, &Client{invoker: sbi.NewClient("amf", env, reg), service: ServiceName}
}

func TestCreateSession(t *testing.T) {
	s, u, c := harness(t)
	resp, err := c.CreateSession(context.Background(), &CreateSessionRequest{
		SUPI: "imsi-1", SessionID: 1, DNN: "internet",
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if resp.UEAddress == "" || resp.TEID == 0 {
		t.Fatalf("resp = %+v", resp)
	}
	if s.SessionCount() != 1 || u.SessionCount() != 1 {
		t.Fatalf("session counts = %d/%d", s.SessionCount(), u.SessionCount())
	}
}

func TestCreateSessionUniqueAddresses(t *testing.T) {
	_, _, c := harness(t)
	a, err := c.CreateSession(context.Background(), &CreateSessionRequest{SUPI: "imsi-1", SessionID: 1, DNN: "internet"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	b, err := c.CreateSession(context.Background(), &CreateSessionRequest{SUPI: "imsi-2", SessionID: 1, DNN: "internet"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if a.UEAddress == b.UEAddress || a.TEID == b.TEID {
		t.Fatalf("addresses/TEIDs collide: %+v %+v", a, b)
	}
}

func TestCreateSessionValidation(t *testing.T) {
	_, _, c := harness(t)
	var pd *sbi.ProblemDetails
	_, err := c.CreateSession(context.Background(), &CreateSessionRequest{SessionID: 1, DNN: "internet"})
	if !errors.As(err, &pd) || pd.Status != 400 {
		t.Fatalf("missing SUPI err = %v", err)
	}
	_, err = c.CreateSession(context.Background(), &CreateSessionRequest{SUPI: "imsi-1", SessionID: 1})
	if !errors.As(err, &pd) || pd.Status != 400 {
		t.Fatalf("missing DNN err = %v", err)
	}
}

func TestDuplicateSessionRejected(t *testing.T) {
	_, _, c := harness(t)
	req := &CreateSessionRequest{SUPI: "imsi-1", SessionID: 1, DNN: "internet"}
	if _, err := c.CreateSession(context.Background(), req); err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	_, err := c.CreateSession(context.Background(), req)
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 409 {
		t.Fatalf("dup err = %v, want 409", err)
	}
}

func TestReleaseSession(t *testing.T) {
	s, u, c := harness(t)
	req := &CreateSessionRequest{SUPI: "imsi-1", SessionID: 1, DNN: "internet"}
	if _, err := c.CreateSession(context.Background(), req); err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if err := c.ReleaseSession(context.Background(), &ReleaseSessionRequest{SUPI: "imsi-1", SessionID: 1}); err != nil {
		t.Fatalf("ReleaseSession: %v", err)
	}
	if s.SessionCount() != 0 || u.SessionCount() != 0 {
		t.Fatalf("session counts after release = %d/%d", s.SessionCount(), u.SessionCount())
	}
	// Releasing again is a 404.
	err := c.ReleaseSession(context.Background(), &ReleaseSessionRequest{SUPI: "imsi-1", SessionID: 1})
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 404 {
		t.Fatalf("double release err = %v, want 404", err)
	}
	// The session can be recreated after release.
	if _, err := c.CreateSession(context.Background(), req); err != nil {
		t.Fatalf("recreate: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	reg := sbi.NewRegistry()
	if _, err := New(context.Background(), Config{Registry: reg}); err == nil {
		t.Fatal("missing env accepted")
	}
}
