package sbi

import (
	"context"
	"testing"
	"time"

	"shield5g/internal/race"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/simclock"
)

// meterFixture builds a registered server with an armed load meter and a
// client, plus the env that stamps virtual time.
func meterFixture(t *testing.T, cfg OverloadConfig) (*Server, *Client) {
	t.Helper()
	env := newEnv()
	reg := NewRegistry()
	srv := echoServer(t, env)
	srv.EnableOverload(env, cfg)
	if err := reg.Register(srv); err != nil {
		t.Fatalf("Register: %v", err)
	}
	return srv, NewClient("ausf", env, reg)
}

// withPriority stamps p on a child simclock.Call of ctx, as the AMF does
// for the rounds that post on the SBI.
func withPriority(ctx context.Context, p Priority) context.Context {
	c := simclock.NewCall(ctx)
	c.Priority = uint8(p)
	return c
}

func TestPriorityContextHelpers(t *testing.T) {
	ctx := context.Background()
	if got := PriorityFrom(ctx); got != PriorityFresh {
		t.Fatalf("unstamped priority = %v, want fresh", got)
	}
	for _, p := range []Priority{PriorityFresh, PriorityReattach, PriorityEmergency} {
		if got := PriorityFrom(withPriority(ctx, p)); got != p {
			t.Fatalf("roundtrip(%v) = %v", p, got)
		}
	}
	if PriorityEmergency.String() != "emergency" || PriorityFresh.String() != "fresh" {
		t.Fatal("priority names wrong")
	}
	// A context derived below the stamping Call still reads its class.
	wrapped, cancel := context.WithCancel(withPriority(ctx, PriorityReattach))
	defer cancel()
	if got := PriorityFrom(wrapped); got != PriorityReattach {
		t.Fatalf("priority below a WithCancel = %v, want reattach", got)
	}
}

func TestMeterDisarmedIsInert(t *testing.T) {
	srv, c := meterFixture(t, OverloadConfig{ServiceCycles: 1000, MaxQueue: 1})
	if _, ok := srv.CurrentOCI(); ok {
		t.Fatal("disarmed meter advertised an OCI")
	}
	// Far beyond MaxQueue with zero drain: a disarmed meter never sheds.
	for i := 0; i < 10; i++ {
		if err := c.Post(context.Background(), "udm", "/echo", &echoReq{Value: "x"}, nil); err != nil {
			t.Fatalf("Post %d through disarmed meter: %v", i, err)
		}
	}
	if st := srv.OverloadStats(); st.TotalShed() != 0 || st.Served != [3]uint64{} {
		t.Fatalf("disarmed meter counted traffic: %+v", st)
	}
}

func TestMeterShedsBeyondQueueAndExemptsEmergency(t *testing.T) {
	srv, c := meterFixture(t, OverloadConfig{ServiceCycles: 1000, MaxQueue: 2})
	srv.SetOverloadArmed(true)

	// All arrivals at the same virtual instant: no drain between them.
	ctx := simclock.WithArrival(context.Background(), 0)
	var shed *ProblemDetails
	for i := 0; i < 5; i++ {
		err := c.Post(ctx, "udm", "/echo", &echoReq{Value: "x"}, nil)
		if err != nil {
			if pd, ok := AsProblem(err); ok && pd.Cause == CauseOverload {
				shed = pd
				continue
			}
			t.Fatalf("Post %d: %v", i, err)
		}
	}
	if shed == nil {
		t.Fatal("no request shed with a full bounded queue")
	}
	if shed.Status != 503 || !Retryable(shed) {
		t.Fatalf("shed = %+v, want retryable 503", shed)
	}
	if shed.RetryAfter <= 0 || shed.OCI == nil {
		t.Fatalf("shed missing Retry-After/OCI: %+v", shed)
	}

	// Emergency traffic is exempt even with the queue saturated.
	ectx := withPriority(ctx, PriorityEmergency)
	if err := c.Post(ectx, "udm", "/echo", &echoReq{Value: "sos"}, nil); err != nil {
		t.Fatalf("emergency Post through full queue: %v", err)
	}

	st := srv.OverloadStats()
	if st.Shed[PriorityFresh] == 0 || st.Shed[PriorityEmergency] != 0 {
		t.Fatalf("shed counters = %v", st.Shed)
	}
	if st.Served[PriorityEmergency] != 1 {
		t.Fatalf("emergency served = %d, want 1", st.Served[PriorityEmergency])
	}
	if st.PeakQueue < 2 {
		t.Fatalf("peak queue = %d, want >= 2", st.PeakQueue)
	}
}

func TestMeterDrainsOnArrivalAxis(t *testing.T) {
	srv, c := meterFixture(t, OverloadConfig{ServiceCycles: 1000, MaxQueue: 2})
	srv.SetOverloadArmed(true)

	base := context.Background()
	fill := simclock.WithArrival(base, 0)
	sheds := 0
	for i := 0; i < 4; i++ {
		if err := c.Post(fill, "udm", "/echo", &echoReq{Value: "x"}, nil); err != nil {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("queue never filled")
	}
	// An arrival far enough in the future drains the whole backlog.
	late := simclock.WithArrival(base, 1_000_000)
	if err := c.Post(late, "udm", "/echo", &echoReq{Value: "x"}, nil); err != nil {
		t.Fatalf("Post after drain window: %v", err)
	}
	if st := srv.OverloadStats(); st.Load >= 100 {
		t.Fatalf("load did not decay after drain: %d", st.Load)
	}
}

func TestMeterChargesFIFOWait(t *testing.T) {
	srv, c := meterFixture(t, OverloadConfig{ServiceCycles: 2_000_000, MaxQueue: 8})
	srv.SetOverloadArmed(true)

	post := func() simclock.Cycles {
		var acct simclock.Account
		ctx := simclock.WithAccount(simclock.WithArrival(context.Background(), 0), &acct)
		if err := c.Post(ctx, "udm", "/echo", &echoReq{Value: "x"}, nil); err != nil {
			t.Fatalf("Post: %v", err)
		}
		return acct.Total()
	}
	post() // first contact: pays the TLS handshake, skews the comparison
	second := post()
	third := post()
	// Each same-instant arrival waits behind one more queued service cost
	// than the previous; the difference must show the extra queued work.
	if third < second+1_500_000 {
		t.Fatalf("FIFO wait not charged: second=%d third=%d", second, third)
	}
	if st := srv.OverloadStats(); st.QueueDelay <= 0 {
		t.Fatalf("queue delay not accounted: %+v", st)
	}
}

// TestArmedMeterAdmitAllocatesNothing: an armed meter admitting a request,
// FIFO wait charged, allocates nothing; only a shed response copies the
// OCI snapshot to the heap. Skipped under -race, whose sync.Pool and
// instrumentation allocate.
func TestArmedMeterAdmitAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	srv, _ := meterFixture(t, OverloadConfig{ServiceCycles: 1000, MaxQueue: 1 << 20})
	srv.SetOverloadArmed(true)
	m := srv.loadMeter()

	// Same-instant arrivals on an unbounded queue: every request is
	// admitted and waits behind the ones before it.
	var acct simclock.Account
	ctx := simclock.WithAccount(simclock.WithArrival(context.Background(), 0), &acct)
	admit := func() {
		if pd := m.admit(ctx, "udm", "/echo"); pd != nil {
			t.Fatalf("armed meter shed: %v", pd)
		}
	}
	admit()
	if allocs := testing.AllocsPerRun(100, admit); allocs != 0 {
		t.Fatalf("armed admit allocates %.1f per call, want 0", allocs)
	}
	if acct.Total() == 0 {
		t.Fatal("admitted requests were charged no FIFO wait")
	}
}

func TestOCIPropagatesToClientTable(t *testing.T) {
	// MaxQueue 8 is the smallest bound whose full queue fills the whole
	// utilisation window: eight same-instant arrivals fill it, and the
	// ninth sees a load of 100 and is shed.
	srv, c := meterFixture(t, OverloadConfig{ServiceCycles: 1000, MaxQueue: 8})
	srv.SetOverloadArmed(true)

	if _, ok := c.PeerOCI("udm"); ok {
		t.Fatal("client had an OCI before any exchange")
	}
	ctx := simclock.WithArrival(context.Background(), 0)
	for i := 0; i < 8; i++ {
		if err := c.Post(ctx, "udm", "/echo", &echoReq{Value: "x"}, nil); err != nil {
			t.Fatalf("Post %d: %v", i, err)
		}
	}
	err := c.Post(ctx, "udm", "/echo", &echoReq{Value: "x"}, nil)
	if pd, ok := AsProblem(err); !ok || pd.Cause != CauseOverload {
		t.Fatalf("ninth Post: %v, want an overload shed", err)
	}
	oci, ok := c.PeerOCI("udm")
	if !ok {
		t.Fatal("no OCI recorded after exchange")
	}
	if oci.Load < 90 || oci.Reduction <= 0 {
		t.Fatalf("oci = %+v, want high load with reduction", oci)
	}

	// A stale advert (lower Seq) must not overwrite the fresh one.
	c.oci.record("udm", OCI{Load: 1, Seq: 0})
	if got, _ := c.PeerOCI("udm"); got.Load != oci.Load {
		t.Fatalf("stale advert overwrote fresh one: %+v", got)
	}
}

// fixedOCI is an OCISource advertising one static record.
type fixedOCI struct{ oci OCI }

func (f fixedOCI) PeerOCI(string) (OCI, bool) { return f.oci, true }

func TestThrottleDefersProportionallyAndExemptsEmergency(t *testing.T) {
	env := newEnv()
	calls := 0
	inner := invokerFunc(func(context.Context, string, string, codec.Message, codec.Message) error {
		calls++
		return nil
	})
	r := NewResilient(inner, env, fixedOCI{OCI{Load: 95, Reduction: 90, RetryAfter: 50 * time.Millisecond}})

	const n = 40
	for i := 0; i < n; i++ {
		var acct simclock.Account
		ctx := simclock.WithAccount(context.Background(), &acct)
		ctx = simclock.WithJitter(ctx, simclock.NewJitter(uint64(i+1)))
		_ = r.Post(ctx, "udm", "/x", nil, nil)
	}
	st := r.Stats()
	if st.Throttled == 0 {
		t.Fatal("90% reduction advert never throttled")
	}
	// A 90% reduction should defer far more than half of first attempts.
	if st.Throttled < n/2 {
		t.Fatalf("throttled = %d of %d first attempts, want >= %d", st.Throttled, n, n/2)
	}
	if st.RetryAfterHonored == 0 {
		t.Fatal("peer Retry-After floor never honoured")
	}

	// Emergency-class requests must never be deferred.
	before := r.Stats().Throttled
	ectx := withPriority(context.Background(), PriorityEmergency)
	for i := 0; i < 10; i++ {
		if err := r.Post(ectx, "udm", "/x", nil, nil); err != nil {
			t.Fatalf("emergency Post: %v", err)
		}
	}
	if after := r.Stats().Throttled; after != before {
		t.Fatalf("emergency traffic throttled: %d -> %d", before, after)
	}
}

func TestEmergencyBypassesBreaker(t *testing.T) {
	env := newEnv()
	inner := invokerFunc(func(ctx context.Context, _, _ string, _, _ codec.Message) error {
		if PriorityFrom(ctx) == PriorityEmergency {
			return nil
		}
		return Problem(503, "Service Unavailable", CauseUnreachable, "down")
	})
	r := NewResilient(inner, env, nil)

	// Non-emergency failures open the circuit: two requests of four
	// failed attempts each reach the threshold of eight...
	for i := 0; i < 2; i++ {
		_ = r.Post(context.Background(), "udm", "/x", nil, nil)
	}
	br := r.BreakerFor("udm")
	before := br.Stats()
	if before.State != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", before.State)
	}
	// ...but emergency traffic goes straight through the open circuit,
	// without spending a probe or counting a rejection.
	ectx := withPriority(context.Background(), PriorityEmergency)
	if err := r.Post(ectx, "udm", "/x", nil, nil); err != nil {
		t.Fatalf("emergency Post through open circuit: %v", err)
	}
	if after := br.Stats(); after != before {
		t.Fatalf("emergency request touched the breaker: %+v -> %+v", before, after)
	}
}

// TestOverloadShedOverNegotiatedBinarySession pins the end-to-end shape:
// a shed on a framed request classifies exactly like the JSON
// path — same cause, same status, Retry-After and OCI intact.
func TestOverloadShedOverNegotiatedBinarySession(t *testing.T) {
	env := newEnv()
	reg := NewRegistry()
	srv := NewServer("udm", env)
	srv.HandleDual("/auth", BinHandler(echoBin))
	srv.EnableOverload(env, OverloadConfig{ServiceCycles: 1000, MaxQueue: 1})
	if err := reg.Register(srv); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := NewClient("ausf", env, reg)
	c.EnableBinary()

	shedAt := func(c *Client) *ProblemDetails {
		t.Helper()
		ctx := simclock.WithArrival(context.Background(), 0)
		var last *ProblemDetails
		for i := 0; i < 4; i++ {
			var resp binMsg
			err := c.Post(ctx, "udm", "/auth", &binMsg{Value: "v", Blob: []byte{1}}, &resp)
			if err != nil {
				pd, ok := AsProblem(err)
				if !ok {
					t.Fatalf("Post %d: %v", i, err)
				}
				last = pd
			}
		}
		return last
	}

	postBin(t, c, "open") // session open: JSON; later requests are frames
	srv.SetOverloadArmed(true)
	binShed := shedAt(c)
	srv.SetOverloadArmed(false)
	if binShed == nil {
		t.Fatal("no shed over the binary session")
	}

	// Same exercise through a JSON-only client against a fresh meter.
	jc := NewClient("ausf2", env, reg)
	srv.SetOverloadArmed(true)
	jsonShed := shedAt(jc)
	srv.SetOverloadArmed(false)
	if jsonShed == nil {
		t.Fatal("no shed over the JSON session")
	}

	if binShed.Status != jsonShed.Status || binShed.Cause != jsonShed.Cause {
		t.Fatalf("status/cause diverged: bin=%+v json=%+v", binShed, jsonShed)
	}
	if Retryable(binShed) != Retryable(jsonShed) {
		t.Fatal("retryable classification diverged across formats")
	}
	if binShed.RetryAfter <= 0 || binShed.OCI == nil {
		t.Fatalf("binary shed lost Retry-After/OCI: %+v", binShed)
	}
}
