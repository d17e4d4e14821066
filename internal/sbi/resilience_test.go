package sbi

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/simclock"
)

// invokerFunc adapts a function to the Invoker interface.
type invokerFunc func(ctx context.Context, service, path string, req, resp any) error

func (f invokerFunc) Post(ctx context.Context, service, path string, req, resp any) error {
	return f(ctx, service, path, req, resp)
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{Problem(429, "Too Many Requests", CauseCongestion, "x"), true},
		{Problem(500, "Internal Server Error", CauseSystem, "x"), true},
		{Problem(503, "Service Unavailable", CauseUnreachable, "x"), true},
		{Problem(504, "Gateway Timeout", CauseTimeout, "x"), true},
		{Problem(400, "Bad Request", "MANDATORY_IE_MISSING", "x"), false},
		{Problem(403, "Forbidden", "AUTHENTICATION_REJECTED", "x"), false},
		{Problem(404, "Not Found", "CONTEXT_NOT_FOUND", "x"), false},
		{errors.New("transport plumbing"), true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenTimeout: 100 * time.Millisecond, HalfOpenProbes: 2})
	if b.State() != BreakerClosed {
		t.Fatalf("initial state = %v, want closed", b.State())
	}

	// closed -> open after three consecutive failures (a success in
	// between resets the streak).
	b.OnFailure(0)
	b.OnFailure(0)
	b.OnSuccess()
	b.OnFailure(10 * time.Millisecond)
	b.OnFailure(10 * time.Millisecond)
	if b.State() != BreakerClosed {
		t.Fatalf("state after interrupted streak = %v, want closed", b.State())
	}
	b.OnFailure(20 * time.Millisecond)
	if b.State() != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", b.State())
	}

	// open rejects during the cooldown, reporting the remaining wait.
	ok, retryAfter := b.Allow(60 * time.Millisecond)
	if ok || retryAfter != 60*time.Millisecond {
		t.Fatalf("Allow during cooldown = (%v, %v), want (false, 60ms)", ok, retryAfter)
	}

	// open -> half-open once the cooldown elapses; probes are bounded.
	if ok, _ := b.Allow(120 * time.Millisecond); !ok {
		t.Fatal("first probe not admitted after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if ok, _ := b.Allow(121 * time.Millisecond); !ok {
		t.Fatal("second probe not admitted")
	}
	if ok, retryAfter := b.Allow(122 * time.Millisecond); ok || retryAfter != 0 {
		t.Fatalf("saturated half-open = (%v, %v), want (false, 0)", ok, retryAfter)
	}

	// half-open -> closed after the probes succeed.
	b.OnSuccess()
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe successes = %v, want closed", b.State())
	}

	// A half-open probe failure re-opens immediately.
	b.OnFailure(200 * time.Millisecond)
	b.OnFailure(200 * time.Millisecond)
	b.OnFailure(200 * time.Millisecond)
	if ok, _ := b.Allow(400 * time.Millisecond); !ok {
		t.Fatal("probe not admitted after second cooldown")
	}
	b.OnFailure(400 * time.Millisecond)
	if b.State() != BreakerOpen {
		t.Fatalf("state after probe failure = %v, want open", b.State())
	}
	if ok, _ := b.Allow(420 * time.Millisecond); ok {
		t.Fatal("request admitted right after a failed probe re-opened the circuit")
	}
}

func TestResilientRetriesTransientThenSucceeds(t *testing.T) {
	env := newEnv()
	calls := 0
	inner := invokerFunc(func(context.Context, string, string, any, any) error {
		calls++
		if calls < 3 {
			return Problem(503, "Service Unavailable", CauseUnreachable, "warming up")
		}
		return nil
	})
	r := NewResilient(inner, env, DefaultResilienceConfig())
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	if err := r.Post(ctx, "udm", "/x", nil, nil); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if acct.Total() == 0 {
		t.Fatal("backoff waits not charged to the request account")
	}
}

func TestResilientPermanentErrorNotRetried(t *testing.T) {
	env := newEnv()
	calls := 0
	perm := Problem(403, "Forbidden", "AUTHENTICATION_REJECTED", "no")
	inner := invokerFunc(func(context.Context, string, string, any, any) error {
		calls++
		return perm
	})
	r := NewResilient(inner, env, DefaultResilienceConfig())
	err := r.Post(context.Background(), "udm", "/x", nil, nil)
	if !errors.Is(err, perm) && !HasCause(err, "AUTHENTICATION_REJECTED") {
		t.Fatalf("err = %v, want the permanent problem", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (permanent errors must not be retried)", calls)
	}
	// A definitive answer keeps the breaker closed: the peer is alive.
	if st := r.BreakerFor("udm").State(); st != BreakerClosed {
		t.Fatalf("breaker state = %v, want closed", st)
	}
}

func TestResilientCircuitOpensAndReports(t *testing.T) {
	env := newEnv()
	inner := invokerFunc(func(context.Context, string, string, any, any) error {
		return Problem(503, "Service Unavailable", CauseUnreachable, "down")
	})
	r := NewResilient(inner, env, ResilienceConfig{
		Retry:   RetryPolicy{MaxAttempts: 1},
		Breaker: BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour, HalfOpenProbes: 1},
	})
	if err := r.Post(context.Background(), "udm", "/x", nil, nil); !HasCause(err, CauseUnreachable) {
		t.Fatalf("first err = %v, want 503 %s", err, CauseUnreachable)
	}
	if st := r.BreakerFor("udm").State(); st != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	// With the circuit open the request is rejected without touching the
	// inner transport, surfacing the distinct CIRCUIT_OPEN cause.
	if err := r.Post(context.Background(), "udm", "/x", nil, nil); !HasCause(err, CauseCircuitOpen) {
		t.Fatalf("err with open circuit = %v, want 503 %s", err, CauseCircuitOpen)
	}
	// Other services are unaffected: breakers are per-service.
	if err := r.Post(context.Background(), "ausf", "/y", nil, nil); !HasCause(err, CauseUnreachable) {
		t.Fatalf("other-service err = %v, want 503 %s", err, CauseUnreachable)
	}
}

func TestResilientVirtualDeadline(t *testing.T) {
	env := newEnv()
	calls := 0
	inner := invokerFunc(func(context.Context, string, string, any, any) error {
		calls++
		return Problem(503, "Service Unavailable", CauseUnreachable, "down")
	})
	r := NewResilient(inner, env, ResilienceConfig{
		Retry:          RetryPolicy{MaxAttempts: 100, InitialBackoff: 50 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, Multiplier: 1},
		Deadline:       120 * time.Millisecond,
		DisableBreaker: true,
	})
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	err := r.Post(ctx, "udm", "/x", nil, nil)
	if !HasCause(err, CauseTimeout) {
		t.Fatalf("err = %v, want 504 %s", err, CauseTimeout)
	}
	if calls == 0 || calls >= 100 {
		t.Fatalf("calls = %d, want a few attempts bounded by the deadline", calls)
	}
	// The deadline is enforced on virtual time: the account never runs
	// past the budget.
	if spent := env.Model.Duration(acct.Total()); spent > 121*time.Millisecond {
		t.Fatalf("spent %v of virtual time, budget was 120ms", spent)
	}
}

// TestResilientAttemptOvershootsBudget regresses the unsigned-subtraction
// bug in the deadline remainder: an attempt that itself charges more than
// the whole budget (a crash-triggered enclave reload does this) must end
// the call with a 504, not charge ~2^64 cycles to the shared clock.
func TestResilientAttemptOvershootsBudget(t *testing.T) {
	env := newEnv()
	freq := env.Clock.FrequencyHz()
	inner := invokerFunc(func(ctx context.Context, _, _ string, _, _ any) error {
		env.Charge(ctx, simclock.FromDuration(100*time.Millisecond, freq))
		return Problem(503, "Service Unavailable", CauseUnreachable, "reloading")
	})
	r := NewResilient(inner, env, ResilienceConfig{
		Retry:          DefaultRetryPolicy(),
		Deadline:       50 * time.Millisecond,
		DisableBreaker: true,
	})
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	err := r.Post(ctx, "udm", "/x", nil, nil)
	if !HasCause(err, CauseTimeout) {
		t.Fatalf("err = %v, want 504 %s", err, CauseTimeout)
	}
	if spent := env.Model.Duration(acct.Total()); spent > 200*time.Millisecond {
		t.Fatalf("spent %v of virtual time, want roughly the one overshooting attempt", spent)
	}
	if elapsed := env.Model.Duration(env.Clock.Elapsed()); elapsed > time.Second {
		t.Fatalf("shared clock advanced %v (unsigned underflow)", elapsed)
	}
}

func TestResilientCancelledContext(t *testing.T) {
	env := newEnv()
	inner := invokerFunc(func(context.Context, string, string, any, any) error {
		t.Fatal("inner transport reached with a cancelled context")
		return nil
	})
	r := NewResilient(inner, env, DefaultResilienceConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.Post(ctx, "udm", "/x", nil, nil); !HasCause(err, CauseTimeout) {
		t.Fatalf("err = %v, want 504 %s", err, CauseTimeout)
	}
}

// TestClientPostCancelledContext covers the transport itself: Client.Post
// must check ctx before dispatching and surface cancellation as a distinct
// 504/TIMEOUT ProblemDetails instead of a half-executed request.
func TestClientPostCancelledContext(t *testing.T) {
	env := newEnv()
	reg := NewRegistry()
	if err := reg.Register(echoServer(t, env)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := NewClient("ausf", env, reg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := c.Post(ctx, "udm", "/echo", &echoReq{Value: "hi"}, nil)
	pd, ok := AsProblem(err)
	if !ok || pd.Status != 504 || pd.Cause != CauseTimeout {
		t.Fatalf("err = %v, want ProblemDetails 504 %s", err, CauseTimeout)
	}
}

// TestResilientBackoffDeterminism pins the retry schedule: with the same
// env seed, the virtual times of every attempt are identical run to run.
func TestResilientBackoffDeterminism(t *testing.T) {
	schedule := func() []simclock.Cycles {
		env := costmodel.NewEnv(nil, 99)
		var at []simclock.Cycles
		var acct simclock.Account
		ctx := simclock.WithAccount(context.Background(), &acct)
		inner := invokerFunc(func(context.Context, string, string, any, any) error {
			at = append(at, acct.Total())
			return Problem(503, "Service Unavailable", CauseUnreachable, "down")
		})
		r := NewResilient(inner, env, ResilienceConfig{
			Retry:          DefaultRetryPolicy(),
			DisableBreaker: true,
		})
		if err := r.Post(ctx, "udm", "/x", nil, nil); !HasCause(err, CauseUnreachable) {
			t.Fatalf("Post: %v", err)
		}
		return at
	}
	a, b := schedule(), schedule()
	if len(a) != DefaultRetryPolicy().MaxAttempts {
		t.Fatalf("attempts = %d, want %d", len(a), DefaultRetryPolicy().MaxAttempts)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("retry schedules diverged:\n  %v\n  %v", a, b)
	}
	// The jittered waits must actually space the attempts out.
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("attempt %d not after attempt %d: %v", i, i-1, a)
		}
	}
}

// TestResilientHonoursRetryAfter verifies the Retry-After floor: a 429
// carrying a Retry-After above the backoff delays the next attempt by at
// least that much virtual time.
func TestResilientHonoursRetryAfter(t *testing.T) {
	env := newEnv()
	calls := 0
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	var gap simclock.Cycles
	inner := invokerFunc(func(context.Context, string, string, any, any) error {
		calls++
		if calls == 1 {
			pd := Problem(429, "Too Many Requests", CauseCongestion, "slow down")
			pd.RetryAfter = 200 * time.Millisecond
			return pd
		}
		gap = acct.Total()
		return nil
	})
	r := NewResilient(inner, env, ResilienceConfig{
		Retry:          RetryPolicy{MaxAttempts: 2, InitialBackoff: time.Millisecond},
		DisableBreaker: true,
	})
	if err := r.Post(ctx, "udm", "/x", nil, nil); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if got := env.Model.Duration(gap); got < 200*time.Millisecond {
		t.Fatalf("second attempt after %v, want >= the 200ms Retry-After", got)
	}
}
