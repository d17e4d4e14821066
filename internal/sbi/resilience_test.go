package sbi

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/simclock"
)

// invokerFunc adapts a function to the Invoker interface.
type invokerFunc func(ctx context.Context, service, path string, req, resp codec.Message) error

func (f invokerFunc) Post(ctx context.Context, service, path string, req, resp codec.Message) error {
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

// failN records n consecutive transient failures at virtual time now.
func failN(b *Breaker, n int, now time.Duration) {
	for range n {
		b.OnFailure(now)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	const ms = time.Millisecond
	b := &Breaker{}
	if b.state != BreakerClosed {
		t.Fatalf("initial state = %v, want closed", b.state)
	}

	// closed -> open after eight consecutive failures (a success in
	// between resets the streak).
	failN(b, breakerThreshold-1, 0)
	b.OnSuccess()
	failN(b, breakerThreshold-1, 10*ms)
	if b.state != BreakerClosed {
		t.Fatalf("state after interrupted streak = %v, want closed", b.state)
	}
	b.OnFailure(20 * ms)
	if b.state != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", b.state)
	}

	// open rejects during the one-second cooldown, reporting the
	// remaining wait.
	ok, retryAfter := b.Allow(620 * ms)
	if ok || retryAfter != 400*ms {
		t.Fatalf("Allow during cooldown = (%v, %v), want (false, 400ms)", ok, retryAfter)
	}

	// open -> half-open once the cooldown elapses; two probes at most.
	if ok, _ := b.Allow(1020 * ms); !ok {
		t.Fatal("first probe not admitted after cooldown")
	}
	if b.state != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.state)
	}
	if ok, _ := b.Allow(1021 * ms); !ok {
		t.Fatal("second probe not admitted")
	}
	if ok, retryAfter := b.Allow(1022 * ms); ok || retryAfter != 0 {
		t.Fatalf("saturated half-open = (%v, %v), want (false, 0)", ok, retryAfter)
	}

	// half-open -> closed after both probes succeed.
	b.OnSuccess()
	b.OnSuccess()
	if b.state != BreakerClosed {
		t.Fatalf("state after probe successes = %v, want closed", b.state)
	}

	// A half-open probe failure re-opens immediately.
	failN(b, breakerThreshold, 2000*ms)
	if ok, _ := b.Allow(3000 * ms); !ok {
		t.Fatal("probe not admitted after second cooldown")
	}
	b.OnFailure(3000 * ms)
	if b.state != BreakerOpen {
		t.Fatalf("state after probe failure = %v, want open", b.state)
	}
	if ok, _ := b.Allow(3020 * ms); ok {
		t.Fatal("request admitted right after a failed probe re-opened the circuit")
	}
	if st := b.Stats(); st.Opens != 3 || st.HalfOpens != 2 || st.Closes != 1 || st.Probes != 3 || st.Rejected != 3 {
		t.Fatalf("stats = %+v, want 3 opens, 2 half-opens, 1 close, 3 probes, 3 rejections", st)
	}
}

func TestResilientRetriesTransientThenSucceeds(t *testing.T) {
	env := newEnv()
	calls := 0
	inner := invokerFunc(func(context.Context, string, string, codec.Message, codec.Message) error {
		calls++
		if calls < 3 {
			return Problem(503, "Service Unavailable", CauseUnreachable, "warming up")
		}
		return nil
	})
	r := NewResilient(inner, env, nil)
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
	inner := invokerFunc(func(context.Context, string, string, codec.Message, codec.Message) error {
		calls++
		return perm
	})
	r := NewResilient(inner, env, nil)
	err := r.Post(context.Background(), "udm", "/x", nil, nil)
	if !errors.Is(err, perm) && !HasCause(err, "AUTHENTICATION_REJECTED") {
		t.Fatalf("err = %v, want the permanent problem", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (permanent errors must not be retried)", calls)
	}
	// A definitive answer keeps the breaker closed: the peer is alive.
	if st := r.BreakerFor("udm").state; st != BreakerClosed {
		t.Fatalf("breaker state = %v, want closed", st)
	}
}

func TestResilientCircuitOpensAndReports(t *testing.T) {
	env := newEnv()
	calls := 0
	inner := invokerFunc(func(context.Context, string, string, codec.Message, codec.Message) error {
		calls++
		return Problem(503, "Service Unavailable", CauseUnreachable, "down")
	})
	r := NewResilient(inner, env, nil)
	// One request makes at most four attempts, so it cannot open the
	// circuit on its own; the second request's last failure is the
	// eighth in a row and does.
	for i := 1; i <= 2; i++ {
		if err := r.Post(context.Background(), "udm", "/x", nil, nil); !HasCause(err, CauseUnreachable) {
			t.Fatalf("request %d: err = %v, want 503 %s", i, err, CauseUnreachable)
		}
		want := BreakerClosed
		if i == 2 {
			want = BreakerOpen
		}
		if st := r.BreakerFor("udm").state; st != want {
			t.Fatalf("after request %d: breaker state = %v, want %v", i, st, want)
		}
	}
	if calls != 2*maxAttempts {
		t.Fatalf("calls = %d, want %d", calls, 2*maxAttempts)
	}

	// Once the cooldown has passed, two probes from other requests hold
	// every half-open slot: this request is rejected on every attempt
	// without touching the inner transport, surfacing the distinct
	// CIRCUIT_OPEN cause.
	env.Clock.AdvanceDuration(breakerCooldown)
	br := r.BreakerFor("udm")
	for range breakerProbes {
		if ok, _ := br.Allow(env.Clock.Now()); !ok {
			t.Fatal("probe not admitted after the cooldown")
		}
	}
	calls = 0
	if err := r.Post(context.Background(), "udm", "/x", nil, nil); !HasCause(err, CauseCircuitOpen) {
		t.Fatalf("err with saturated half-open circuit = %v, want 503 %s", err, CauseCircuitOpen)
	}
	if calls != 0 {
		t.Fatalf("calls = %d through a saturated circuit, want 0", calls)
	}
	if st := r.Stats().Breaker; st.Rejected != maxAttempts {
		t.Fatalf("breaker rejected %d attempts, want %d", st.Rejected, maxAttempts)
	}
	// Other services are unaffected: breakers are per-service.
	if err := r.Post(context.Background(), "ausf", "/y", nil, nil); !HasCause(err, CauseUnreachable) || calls != maxAttempts {
		t.Fatalf("other-service err = %v after %d calls, want 503 %s after %d", err, calls, CauseUnreachable, maxAttempts)
	}
}

// TestResilientVirtualDeadline: attempts that each cost 4 s of virtual
// time exhaust the 10 s deadline on the third, whether or not the caller
// attached an account — a request without one gets one, so the deadline
// reads what its attempts and waits charge.
func TestResilientVirtualDeadline(t *testing.T) {
	for _, withAccount := range []bool{true, false} {
		env := newEnv()
		freq := env.Clock.FrequencyHz()
		calls := 0
		inner := invokerFunc(func(ctx context.Context, _, _ string, _, _ codec.Message) error {
			calls++
			env.Charge(ctx, simclock.FromDuration(4*time.Second, freq))
			return Problem(503, "Service Unavailable", CauseCongestion, "busy")
		})
		r := NewResilient(inner, env, nil)
		ctx := context.Background()
		var acct simclock.Account
		if withAccount {
			ctx = simclock.WithAccount(ctx, &acct)
		}
		err := r.Post(ctx, "udm", "/x", nil, nil)
		if !HasCause(err, CauseTimeout) || calls != 3 || r.Stats().DeadlineHits != 1 {
			t.Fatalf("account=%v: err = %v after %d attempts, %d deadline hits; want 504 %s after 3, 1 hit",
				withAccount, err, calls, r.Stats().DeadlineHits, CauseTimeout)
		}
		// The deadline is enforced on virtual time: the request stops at
		// the attempt that crossed the budget.
		if spent := env.Model.Duration(env.Clock.Elapsed()); spent > 12100*time.Millisecond {
			t.Fatalf("account=%v: spent %v of virtual time, want at most the 3 attempts and 2 waits", withAccount, spent)
		}
	}
}

// TestResilientAttemptOvershootsBudget regresses the unsigned-subtraction
// bug in the deadline remainder: an attempt that itself charges more than
// the whole budget (a crash-triggered enclave reload does this) must end
// the call with a 504, not charge ~2^64 cycles to the shared clock.
func TestResilientAttemptOvershootsBudget(t *testing.T) {
	env := newEnv()
	freq := env.Clock.FrequencyHz()
	inner := invokerFunc(func(ctx context.Context, _, _ string, _, _ codec.Message) error {
		env.Charge(ctx, simclock.FromDuration(requestDeadline+time.Second, freq))
		return Problem(503, "Service Unavailable", CauseUnreachable, "reloading")
	})
	r := NewResilient(inner, env, nil)
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	err := r.Post(ctx, "udm", "/x", nil, nil)
	if !HasCause(err, CauseTimeout) {
		t.Fatalf("err = %v, want 504 %s", err, CauseTimeout)
	}
	if spent := env.Model.Duration(acct.Total()); spent > requestDeadline+2*time.Second {
		t.Fatalf("spent %v of virtual time, want roughly the one overshooting attempt", spent)
	}
	if elapsed := env.Model.Duration(env.Clock.Elapsed()); elapsed > time.Minute {
		t.Fatalf("shared clock advanced %v (unsigned underflow)", elapsed)
	}
}

func TestResilientCancelledContext(t *testing.T) {
	env := newEnv()
	inner := invokerFunc(func(context.Context, string, string, codec.Message, codec.Message) error {
		t.Fatal("inner transport reached with a cancelled context")
		return nil
	})
	r := NewResilient(inner, env, nil)
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
		inner := invokerFunc(func(context.Context, string, string, codec.Message, codec.Message) error {
			at = append(at, acct.Total())
			return Problem(503, "Service Unavailable", CauseUnreachable, "down")
		})
		r := NewResilient(inner, env, nil)
		if err := r.Post(ctx, "udm", "/x", nil, nil); !HasCause(err, CauseUnreachable) {
			t.Fatalf("Post: %v", err)
		}
		return at
	}
	a, b := schedule(), schedule()
	if len(a) != maxAttempts {
		t.Fatalf("attempts = %d, want %d", len(a), maxAttempts)
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
	inner := invokerFunc(func(context.Context, string, string, codec.Message, codec.Message) error {
		calls++
		if calls == 1 {
			pd := Problem(429, "Too Many Requests", CauseCongestion, "slow down")
			pd.RetryAfter = 200 * time.Millisecond
			return pd
		}
		gap = acct.Total()
		return nil
	})
	r := NewResilient(inner, env, nil)
	if err := r.Post(ctx, "udm", "/x", nil, nil); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if got := env.Model.Duration(gap); got < 200*time.Millisecond {
		t.Fatalf("second attempt after %v, want >= the 200ms Retry-After", got)
	}
}
