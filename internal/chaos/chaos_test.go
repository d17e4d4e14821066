package chaos

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/simclock"
)

type call struct {
	service, path string
	respNil       bool
}

// recorder is a stub inner transport.
type recorder struct {
	calls []call
	err   error
}

func (r *recorder) Post(_ context.Context, service, path string, _, resp codec.Message) error {
	r.calls = append(r.calls, call{service: service, path: path, respNil: resp == nil})
	return r.err
}

func newTestInjector(seed uint64, cfg Config) (*Injector, *recorder, sbi.Invoker) {
	cfg.Seed = seed
	env := costmodel.NewEnv(nil, seed+1)
	inj := NewInjector(env, cfg)
	rec := &recorder{}
	return inj, rec, inj.Wrap(rec)
}

// outcomes drives n requests and buckets each as its ProblemDetails cause
// or "ok".
func outcomes(inv sbi.Invoker, n int) []string {
	out := make([]string, n)
	for i := range out {
		err := inv.Post(context.Background(), "udm", "/x", nil, nil)
		switch pd, ok := sbi.AsProblem(err); {
		case err == nil:
			out[i] = "ok"
		case ok:
			out[i] = pd.Cause
		default:
			out[i] = "internal"
		}
	}
	return out
}

func TestDecisionsAreSeedDeterministic(t *testing.T) {
	cfg := DefaultMix(0, 0.5)
	_, _, inv1 := newTestInjector(7, cfg)
	_, _, inv2 := newTestInjector(7, cfg)
	a, b := outcomes(inv1, 300), outcomes(inv2, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed injectors drew different fault sequences")
	}
	_, _, inv3 := newTestInjector(8, cfg)
	if reflect.DeepEqual(a, outcomes(inv3, 300)) {
		t.Fatal("different seeds drew identical fault sequences (streams not seeded)")
	}
}

func TestDisarmedConsumesNoStreamState(t *testing.T) {
	cfg := DefaultMix(0, 0.5)
	inj, rec, inv := newTestInjector(7, cfg)

	// A disarmed stretch must pass everything through untouched...
	inj.SetArmed(false)
	for i := 0; i < 50; i++ {
		if err := inv.Post(context.Background(), "udm", "/x", nil, nil); err != nil {
			t.Fatalf("disarmed Post: %v", err)
		}
	}
	if len(inj.Counts()) != 0 {
		t.Fatalf("disarmed injector counted faults: %v", inj.Counts())
	}
	if len(rec.calls) != 50 {
		t.Fatalf("inner calls = %d, want 50", len(rec.calls))
	}

	// ...and consume no decisions: arming afterwards replays the exact
	// sequence a fresh injector produces.
	inj.SetArmed(true)
	_, _, fresh := newTestInjector(7, cfg)
	if !reflect.DeepEqual(outcomes(inv, 200), outcomes(fresh, 200)) {
		t.Fatal("disarmed stretch shifted later fault decisions")
	}
}

func TestWorkerStreamsIndependentAndDeterministic(t *testing.T) {
	cfg := DefaultMix(0, 0.5)
	worker := func(i uint64) []string {
		inj, _, _ := newTestInjector(7, cfg)
		inv := inj.Wrap(&recorder{})
		ctx := inj.WorkerContext(context.Background(), i)
		out := make([]string, 200)
		for j := range out {
			if err := inv.Post(ctx, "udm", "/x", nil, nil); err == nil {
				out[j] = "ok"
			} else if pd, ok := sbi.AsProblem(err); ok {
				out[j] = pd.Cause
			}
		}
		return out
	}
	if !reflect.DeepEqual(worker(1), worker(1)) {
		t.Fatal("same worker stream not reproducible")
	}
	if reflect.DeepEqual(worker(1), worker(2)) {
		t.Fatal("distinct workers drew identical sequences")
	}
}

func TestDropExecutesServerSideAndTimesOut(t *testing.T) {
	cfg := Config{DropRate: 1}
	inj, rec, inv := newTestInjector(7, cfg)
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	err := inv.Post(ctx, "udm", "/x", &sbi.OCI{}, &sbi.OCI{})
	if !sbi.HasCause(err, sbi.CauseTimeout) {
		t.Fatalf("err = %v, want 504 %s", err, sbi.CauseTimeout)
	}
	// The server side ran (state may have committed) but the reply was
	// discarded, and the client paid the timeout in virtual time.
	if len(rec.calls) != 1 || !rec.calls[0].respNil {
		t.Fatalf("inner calls = %+v, want one with a discarded response", rec.calls)
	}
	if got := inj.env.Model.Duration(acct.Total()); got < dropTimeout {
		t.Fatalf("charged %v, want >= the %v drop timeout", got, dropTimeout)
	}
}

func TestCrashHookRestartAndFallthrough(t *testing.T) {
	cfg := Config{CrashRate: 1}

	// Without a hook the draw degrades to a clean call.
	_, rec, inv := newTestInjector(7, cfg)
	if err := inv.Post(context.Background(), "udm", "/x", nil, nil); err != nil {
		t.Fatalf("hookless crash draw: %v", err)
	}
	if len(rec.calls) != 1 {
		t.Fatalf("inner calls = %d, want 1", len(rec.calls))
	}

	// With a hook the module restarts and the request fails retryably,
	// carrying the Retry-After hint.
	inj, rec2, inv2 := newTestInjector(7, cfg)
	restarts := 0
	inj.RegisterCrash("udm", func(context.Context) error { restarts++; return nil })
	err := inv2.Post(context.Background(), "udm", "/x", nil, nil)
	pd, ok := sbi.AsProblem(err)
	if !ok || pd.Status != 503 || pd.Cause != sbi.CauseUnreachable || pd.RetryAfter != retryAfter {
		t.Fatalf("err = %v, want retryable 503 %s with Retry-After", err, sbi.CauseUnreachable)
	}
	if restarts != 1 || len(rec2.calls) != 0 {
		t.Fatalf("restarts = %d, inner calls = %d; want 1 and 0", restarts, len(rec2.calls))
	}
	if !sbi.Retryable(err) {
		t.Fatal("crash outcome must be retryable")
	}

	// A failing restart is a hard 500.
	inj3, _, inv3 := newTestInjector(7, cfg)
	inj3.RegisterCrash("udm", func(context.Context) error { return errors.New("no capacity") })
	if err := inv3.Post(context.Background(), "udm", "/x", nil, nil); !sbi.HasCause(err, sbi.CauseSystem) {
		t.Fatalf("err = %v, want 500 %s", err, sbi.CauseSystem)
	}
}

func TestLatencyFaultChargesAndForwards(t *testing.T) {
	cfg := Config{LatencyRate: 1}
	inj, rec, inv := newTestInjector(7, cfg)
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	if err := inv.Post(ctx, "udm", "/x", nil, nil); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if len(rec.calls) != 1 {
		t.Fatalf("inner calls = %d, want 1 (latency faults still execute)", len(rec.calls))
	}
	if acct.Total() == 0 {
		t.Fatal("latency spike not charged")
	}
	if inj.Counts()["latency"] != 1 {
		t.Fatalf("counts = %v, want one latency fault", inj.Counts())
	}
}

func TestDefaultMixSumsToTotal(t *testing.T) {
	cfg := DefaultMix(1, 0.10)
	if got := cfg.TotalRate(); got < 0.0999 || got > 0.1001 {
		t.Fatalf("TotalRate = %v, want 0.10", got)
	}
}
