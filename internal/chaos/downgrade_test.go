package chaos

import (
	"context"
	"fmt"
	"testing"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

// This file covers the interaction between the binary-SBI 415 downgrade
// retry and chaos faults (satellite of the overload-control PR): a stale
// binary negotiation healed mid-request must compose with injected
// transient failures without skipping breaker accounting and without
// double-releasing the pooled request body — the downgrade path marshals a
// fresh JSON body after the binary one is spent, so every buffer crosses
// the ownership boundary exactly once.

type dcMsg struct {
	Value string `json:"value"`
}

func (m *dcMsg) Fields(f *codec.Fields) { f.String("value", &m.Value, 0) }

// armSchedule arms the injector for exactly the scheduled call numbers, so
// a rate-1.0 fault hits deterministic attempts and nothing else.
type armSchedule struct {
	inj    *Injector
	inner  sbi.Invoker
	calls  int
	faulty map[int]bool
}

func (a *armSchedule) Post(ctx context.Context, service, path string, req, resp any) error {
	a.calls++
	a.inj.SetArmed(a.faulty[a.calls])
	return a.inner.Post(ctx, service, path, req, resp)
}

// downgradeFixture wires a dual-format server, negotiates a binary
// session, then "restarts" the server binary-incapable so the client's
// negotiation is stale.
func downgradeFixture(t *testing.T) (*costmodel.Env, *sbi.Registry, *sbi.Client, *int) {
	t.Helper()
	env := costmodel.NewEnv(nil, 1, nil)
	reg := sbi.NewRegistry()
	srv := sbi.NewServer("udm", env)
	srv.HandleDual("/auth", sbi.BinHandler(func(_ context.Context, req *dcMsg) (*dcMsg, error) {
		return &dcMsg{Value: req.Value}, nil
	}))
	if err := reg.Register(srv); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := sbi.NewClient("ausf", env, reg)
	c.EnableBinary()

	// Open the session (JSON) and confirm the switch to frames.
	var resp dcMsg
	if err := c.Post(context.Background(), "udm", "/auth", &dcMsg{Value: "open"}, &resp); err != nil {
		t.Fatalf("session open: %v", err)
	}
	if err := c.Post(context.Background(), "udm", "/auth", &dcMsg{Value: "bin"}, &resp); err != nil {
		t.Fatalf("negotiated post: %v", err)
	}

	// Restart binary-incapable: same name, JSON-only endpoint. The client
	// keeps its stale binary caps for the path.
	reg.Deregister("udm")
	srv2 := sbi.NewServer("udm", env)
	handlerCalls := 0
	srv2.Handle("/auth", func(_ context.Context, body []byte) ([]byte, error) {
		handlerCalls++
		if codec.IsFrame(body) {
			t.Fatal("JSON-only handler reached with a binary frame")
		}
		var req dcMsg
		if err := sbi.DecodeBody(body, &req); err != nil {
			return nil, err
		}
		return sbi.MarshalBody(&dcMsg{Value: req.Value})
	})
	if err := reg.Register(srv2); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	return env, reg, c, &handlerCalls
}

func TestDowngradeRetryAfterChaosFault(t *testing.T) {
	env, _, c, handlerCalls := downgradeFixture(t)

	// Chaos: a certain transient error on scheduled attempts only.
	inj := NewInjector(env, Config{Seed: 9, ErrorRate: 1.0})
	sched := &armSchedule{inj: inj, inner: inj.Wrap(c), faulty: map[int]bool{1: true}}
	r := sbi.NewResilient(sched, env, sbi.ResilienceConfig{
		Retry:   sbi.RetryPolicy{MaxAttempts: 3, InitialBackoff: time.Millisecond},
		Breaker: sbi.BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Second, HalfOpenProbes: 1},
	})

	// Attempt 1 draws the injected transient fault (breaker must count
	// it); attempt 2 reaches the restarted server with a stale binary
	// frame, eats the 415, downgrades to JSON in-flight and succeeds —
	// one attempt, one success, no extra breaker transition.
	var resp dcMsg
	if err := r.Post(context.Background(), "udm", "/auth", &dcMsg{Value: "storm"}, &resp); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if resp.Value != "storm" {
		t.Fatalf("resp = %+v", resp)
	}
	if *handlerCalls != 1 {
		t.Fatalf("handler calls = %d, want 1 (the downgraded JSON retry)", *handlerCalls)
	}

	st := r.Stats()
	if st.Attempts != 2 || st.Retries != 1 {
		t.Fatalf("attempts/retries = %d/%d, want 2/1", st.Attempts, st.Retries)
	}
	bst := r.BreakerFor("udm").Stats()
	if bst.State != sbi.BreakerClosed || bst.Opens != 0 {
		t.Fatalf("breaker = %+v, want closed with no opens", bst)
	}
	if got := inj.Counts()["error"]; got != 1 {
		t.Fatalf("injected faults = %d, want exactly 1", got)
	}
}

func TestDowngradeFaultBurstOpensBreakerExactlyOnce(t *testing.T) {
	env, _, c, handlerCalls := downgradeFixture(t)

	inj := NewInjector(env, Config{Seed: 9, ErrorRate: 1.0})
	// Every attempt of the first Post faults; the downgrade never gets to
	// run, and each failed attempt must hit the breaker exactly once —
	// threshold 3 over 3 attempts means exactly one open. Call 4 is the
	// second Post's half-open probe (the retry loop waits out the
	// cooldown): it faults too, re-opening the circuit.
	sched := &armSchedule{inj: inj, inner: inj.Wrap(c), faulty: map[int]bool{1: true, 2: true, 3: true, 4: true}}
	r := sbi.NewResilient(sched, env, sbi.ResilienceConfig{
		Retry:   sbi.RetryPolicy{MaxAttempts: 3, InitialBackoff: time.Millisecond},
		Breaker: sbi.BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Minute, HalfOpenProbes: 1},
	})

	err := r.Post(context.Background(), "udm", "/auth", &dcMsg{Value: "x"}, nil)
	if err == nil || !sbi.Retryable(err) {
		t.Fatalf("err = %v, want transient failure", err)
	}
	bst := r.BreakerFor("udm").Stats()
	if bst.State != sbi.BreakerOpen || bst.Opens != 1 {
		t.Fatalf("breaker = %+v, want exactly one open", bst)
	}
	if *handlerCalls != 0 {
		t.Fatalf("handler calls = %d, want 0 (all attempts faulted client-side)", *handlerCalls)
	}

	// The second Post: its first attempt is rejected by the open circuit,
	// the retry loop waits out the cooldown, and the half-open probe draws
	// the scheduled fault — re-opening the circuit and exhausting retries
	// on a rejection. The downgrade never skips this accounting.
	err = r.Post(context.Background(), "udm", "/auth", &dcMsg{Value: "y"}, nil)
	if !sbi.HasCause(err, sbi.CauseCircuitOpen) {
		t.Fatalf("err = %v, want CIRCUIT_OPEN", err)
	}
	bst = r.BreakerFor("udm").Stats()
	if bst.State != sbi.BreakerOpen || bst.Opens != 2 || bst.Rejected == 0 || bst.Probes != 1 {
		t.Fatalf("breaker = %+v, want re-opened with rejections and one probe", bst)
	}
	if *handlerCalls != 0 {
		t.Fatalf("handler calls = %d, want 0 (probe faulted client-side)", *handlerCalls)
	}
}

func TestDowngradeBodyPoolIntegrity(t *testing.T) {
	env, _, c, handlerCalls := downgradeFixture(t)

	// No chaos: the downgrade itself must not double-release the pooled
	// binary body. The first post heals the path (frame -> 415 -> JSON);
	// a burst of distinct payloads then round-trips through the shared
	// codec pool — a double-released (and so doubly-handed-out) buffer
	// would scramble payloads under the distinct-value check.
	inj := NewInjector(env, Config{Seed: 9, ErrorRate: 1.0})
	inj.SetArmed(false)
	r := sbi.NewResilient(inj.Wrap(c), env, sbi.ResilienceConfig{
		Retry: sbi.RetryPolicy{MaxAttempts: 2, InitialBackoff: time.Millisecond},
	})
	for i := 0; i < 32; i++ {
		want := fmt.Sprintf("payload-%03d-%s", i, string(make([]byte, i%7+1)))
		var resp dcMsg
		if err := r.Post(context.Background(), "udm", "/auth", &dcMsg{Value: want}, &resp); err != nil {
			t.Fatalf("Post %d: %v", i, err)
		}
		if resp.Value != want {
			t.Fatalf("Post %d echoed %q, want %q", i, resp.Value, want)
		}
	}
	// One 415'd frame plus 32 JSON calls: the downgrade retried exactly
	// once and never re-upgraded the stale path.
	if *handlerCalls != 32 {
		t.Fatalf("handler calls = %d, want 32", *handlerCalls)
	}
	if st := r.Stats(); st.Retries != 0 {
		t.Fatalf("retries = %d, want 0 (downgrade is in-attempt, not a retry)", st.Retries)
	}
}
