package smf

import (
	"context"
	"errors"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/upf"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

// The subscribers the tests open sessions for.
var imsi1, imsi2 = mustSUPI("imsi-1"), mustSUPI("imsi-2")

func mustSUPI(text string) codec.SUPI {
	s, err := codec.ParseSUPI(text)
	if err != nil {
		panic(err)
	}
	return s
}

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
		SUPI: imsi1, SessionID: 1, DNN: "internet",
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if !resp.UEAddress.IsValid() || resp.TEID == 0 {
		t.Fatalf("resp = %+v", resp)
	}
	if s.SessionCount() != 1 || u.SessionCount() != 1 {
		t.Fatalf("session counts = %d/%d", s.SessionCount(), u.SessionCount())
	}
}

func TestCreateSessionUniqueAddresses(t *testing.T) {
	_, _, c := harness(t)
	a, err := c.CreateSession(context.Background(), &CreateSessionRequest{SUPI: imsi1, SessionID: 1, DNN: "internet"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	b, err := c.CreateSession(context.Background(), &CreateSessionRequest{SUPI: imsi2, SessionID: 1, DNN: "internet"})
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
	_, err = c.CreateSession(context.Background(), &CreateSessionRequest{SUPI: imsi1, SessionID: 1})
	if !errors.As(err, &pd) || pd.Status != 400 {
		t.Fatalf("missing DNN err = %v", err)
	}
}

func TestDuplicateSessionRejected(t *testing.T) {
	_, _, c := harness(t)
	req := &CreateSessionRequest{SUPI: imsi1, SessionID: 1, DNN: "internet"}
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
	req := &CreateSessionRequest{SUPI: imsi1, SessionID: 1, DNN: "internet"}
	if _, err := c.CreateSession(context.Background(), req); err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if err := c.ReleaseSession(context.Background(), &ReleaseSessionRequest{SUPI: imsi1, SessionID: 1}); err != nil {
		t.Fatalf("ReleaseSession: %v", err)
	}
	if s.SessionCount() != 0 || u.SessionCount() != 0 {
		t.Fatalf("session counts after release = %d/%d", s.SessionCount(), u.SessionCount())
	}
	// Releasing again is a 404.
	err := c.ReleaseSession(context.Background(), &ReleaseSessionRequest{SUPI: imsi1, SessionID: 1})
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

// releaseInside is an SMF invoker that runs a release of the session
// being created inside that session's UPF establish: the interleaving in
// which a release lands after the SMF filed the session and before the
// UPF installed its rule.
type releaseInside struct {
	sbi.Invoker
	smf *SMF
	req *ReleaseSessionRequest
	err error
}

func (r *releaseInside) Post(ctx context.Context, service, path string, req, resp codec.Message) error {
	if path == upf.PathEstablish && r.req != nil {
		r.err = r.smf.handleRelease(ctx, r.req, nil)
		r.req = nil
	}
	return r.Invoker.Post(ctx, service, path, req, resp)
}

// TestReleaseDuringEstablishLeavesNoOrphanRule: whatever a release that
// races a create answers, the UPF holds a rule exactly when the SMF holds
// the session, and a release after the create removes both.
func TestReleaseDuringEstablishLeavesNoOrphanRule(t *testing.T) {
	s, u, c := harness(t)
	ctx := context.Background()
	rel := &ReleaseSessionRequest{SUPI: imsi1, SessionID: 1}
	race := &releaseInside{Invoker: s.invoker, smf: s, req: rel}
	s.invoker = race
	_, err := c.CreateSession(ctx, &CreateSessionRequest{SUPI: imsi1, SessionID: 1, DNN: "internet"})
	if race.req != nil {
		t.Fatal("the create never reached the UPF")
	}
	if s.SessionCount() != u.SessionCount() {
		t.Fatalf("create (err %v) raced by a release (err %v): SMF holds %d sessions, UPF %d rules",
			err, race.err, s.SessionCount(), u.SessionCount())
	}
	if s.SessionCount() == 0 {
		return
	}
	if err := s.handleRelease(ctx, rel, nil); err != nil {
		t.Fatalf("release after the create: %v", err)
	}
	if s.SessionCount() != 0 || u.SessionCount() != 0 {
		t.Fatalf("after release: SMF holds %d sessions, UPF %d rules", s.SessionCount(), u.SessionCount())
	}
}

// loseRelease is an SMF invoker whose UPF release fails: the request is
// lost, or, with replyLost, the UPF removes the rule and its answer is
// lost.
type loseRelease struct {
	sbi.Invoker
	replyLost bool
}

func (l *loseRelease) Post(ctx context.Context, service, path string, req, resp codec.Message) error {
	if path != upf.PathRelease {
		return l.Invoker.Post(ctx, service, path, req, resp)
	}
	if l.replyLost {
		if err := l.Invoker.Post(ctx, service, path, req, resp); err != nil {
			return err
		}
	}
	return sbi.Problem(504, "Gateway Timeout", sbi.CauseTimeout, "UPF release lost")
}

// TestFailedReleaseKeepsTheSessionForARetry: a release whose UPF release
// fails, or whose UPF answer is lost, fails and leaves the SMF its
// session, so a retried release ends with neither the SMF nor the UPF
// holding anything.
func TestFailedReleaseKeepsTheSessionForARetry(t *testing.T) {
	for _, tc := range []struct {
		name      string
		replyLost bool
		upfRules  int
	}{
		{"release fails", false, 1},
		{"reply lost", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, u, c := harness(t)
			ctx := context.Background()
			if _, err := c.CreateSession(ctx, &CreateSessionRequest{SUPI: imsi1, SessionID: 1, DNN: "internet"}); err != nil {
				t.Fatalf("CreateSession: %v", err)
			}
			direct := s.invoker
			s.invoker = &loseRelease{Invoker: direct, replyLost: tc.replyLost}
			rel := &ReleaseSessionRequest{SUPI: imsi1, SessionID: 1}
			if err := c.ReleaseSession(ctx, rel); !sbi.HasCause(err, sbi.CauseTimeout) {
				t.Fatalf("release err = %v, want the UPF's TIMEOUT", err)
			}
			if s.SessionCount() != 1 || u.SessionCount() != tc.upfRules {
				t.Fatalf("after the failed release: SMF holds %d sessions, UPF %d rules; want 1, %d",
					s.SessionCount(), u.SessionCount(), tc.upfRules)
			}
			s.invoker = direct
			if err := c.ReleaseSession(ctx, rel); err != nil {
				t.Fatalf("retried release: %v", err)
			}
			if s.SessionCount() != 0 || u.SessionCount() != 0 {
				t.Fatalf("after the retry: SMF holds %d sessions, UPF %d rules; want 0, 0", s.SessionCount(), u.SessionCount())
			}
		})
	}
}
