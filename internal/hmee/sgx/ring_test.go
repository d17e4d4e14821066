package sgx

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shield5g/internal/simclock"
)

// testRing builds an enclave, enters a resident dispatcher thread, and
// opens a ring on it, tearing everything down in reverse order.
func testRing(t *testing.T, size int) (*Ring, *Enclave) {
	t.Helper()
	p := testPlatform(t)
	e := build(t, p, testConfig())
	th, err := e.EnterResident(context.Background())
	if err != nil {
		t.Fatalf("EnterResident: %v", err)
	}
	r := NewRing(e, th, size)
	t.Cleanup(func() {
		r.Close()
		e.LeaveResident(th)
	})
	return r, e
}

// countJob counts its executions; an optional gate makes it block while
// holding the dispatcher (started is signalled once it is inside).
type countJob struct {
	runs    atomic.Int32
	err     error
	started chan struct{}
	release chan struct{}
}

func (j *countJob) Execute(*Thread) error {
	if j.started != nil {
		close(j.started)
	}
	if j.release != nil {
		<-j.release
	}
	j.runs.Add(1)
	return j.err
}

// admitted reads the ring's in-flight count — submissions admitted and not
// yet returned — and whether Close has shut the ring.
func admitted(r *Ring) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inflight, r.closed
}

// waitAdmitted blocks until n submissions are in flight on r.
func waitAdmitted(t *testing.T, r *Ring, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := admitted(r)
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d submissions were admitted", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRingWraparound(t *testing.T) {
	r, _ := testRing(t, 4)
	ctx := context.Background()
	// 20 sequential submissions through a 4-slot ring: slots are reused,
	// every job runs exactly once and none ever finds the ring full.
	jobs := make([]*countJob, 20)
	for i := range jobs {
		jobs[i] = &countJob{}
		if err := r.Submit(ctx, jobs[i]); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	for i, j := range jobs {
		if n := j.runs.Load(); n != 1 {
			t.Fatalf("job %d ran %d times, want exactly 1", i, n)
		}
	}
	st := r.Stats()
	if st.Submitted != 20 || st.Completed != 20 || st.Drained != 0 || st.Backpressure != 0 {
		t.Fatalf("stats = %+v, want Submitted=20 Completed=20 Drained=0 Backpressure=0", st)
	}
}

func TestRingSubmitPropagatesJobError(t *testing.T) {
	r, _ := testRing(t, 0)
	sentinel := errors.New("job failed")
	j := &countJob{err: sentinel}
	if err := r.Submit(context.Background(), j); !errors.Is(err, sentinel) {
		t.Fatalf("Submit = %v, want the job's own error", err)
	}
}

func TestRingBackpressure(t *testing.T) {
	r, _ := testRing(t, 2)
	ctx := context.Background()

	// Hold the dispatcher inside a job so later submissions pile up.
	blocker := &countJob{started: make(chan struct{}), release: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := r.Submit(ctx, blocker); err != nil {
			t.Errorf("Submit blocker: %v", err)
		}
	}()
	<-blocker.started

	// Behind the running blocker the first producer finds one job in
	// flight, the other two find the 2-slot ring full — whichever order
	// the three are admitted in.
	jobs := make([]*countJob, 3)
	for i := range jobs {
		jobs[i] = &countJob{}
		wg.Add(1)
		go func(j *countJob) {
			defer wg.Done()
			if err := r.Submit(ctx, j); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}(jobs[i])
	}
	waitAdmitted(t, r, 4)
	if bp := r.Stats().Backpressure; bp != 2 {
		t.Fatalf("Backpressure = %d with 4 jobs in flight on a 2-slot ring, want 2", bp)
	}

	close(blocker.release)
	wg.Wait()
	for i, j := range jobs {
		if n := j.runs.Load(); n != 1 {
			t.Fatalf("job %d ran %d times, want exactly 1", i, n)
		}
	}
	st := r.Stats()
	if st.Submitted != 4 || st.Completed != 4 || st.Backpressure != 2 {
		t.Fatalf("stats = %+v, want Submitted=4 Completed=4 Backpressure=2", st)
	}
}

// TestRingStartsNoGoroutine pins the design: the ring is a cost model run
// on its submitters' goroutines, so neither NewRing nor Close changes the
// goroutine count.
func TestRingStartsNoGoroutine(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	th, err := e.EnterResident(context.Background())
	if err != nil {
		t.Fatalf("EnterResident: %v", err)
	}
	defer e.LeaveResident(th)

	before := runtime.NumGoroutine()
	r := NewRing(e, th, 0)
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("NewRing changed the goroutine count %d -> %d", before, n)
	}
	if err := r.Submit(context.Background(), &countJob{}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r.Close()
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("goroutine count %d after Close, want %d", n, before)
	}
}

// overlapJob fails the test when two jobs of one ring run at once.
type overlapJob struct {
	t      *testing.T
	inside *atomic.Int32
	shared *int // unsynchronized on purpose: -race sees any overlap
}

func (j overlapJob) Execute(*Thread) error {
	if n := j.inside.Add(1); n != 1 {
		j.t.Errorf("%d jobs inside the dispatcher at once", n)
	}
	*j.shared++
	runtime.Gosched()
	j.inside.Add(-1)
	return nil
}

// TestRingJobsNeverOverlap: the dispatcher owns one TCS, so jobs of one
// ring run one at a time however many goroutines submit.
func TestRingJobsNeverOverlap(t *testing.T) {
	r, _ := testRing(t, 4)
	const submitters, each = 8, 50
	var (
		inside atomic.Int32
		shared int
		wg     sync.WaitGroup
	)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				if err := r.Submit(context.Background(), overlapJob{t, &inside, &shared}); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if shared != submitters*each {
		t.Fatalf("%d jobs ran, want %d", shared, submitters*each)
	}
	if st := r.Stats(); st.Submitted != submitters*each || st.Completed != st.Submitted {
		t.Fatalf("stats = %+v, want Submitted=Completed=%d", st, submitters*each)
	}
}

func TestRingCloseDrainsExactlyOnce(t *testing.T) {
	r, _ := testRing(t, 4)
	ctx := context.Background()

	blocker := &countJob{started: make(chan struct{}), release: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The blocker is running when Close arrives, so it completes with
		// its own (nil) result even though the ring closes around it.
		if err := r.Submit(ctx, blocker); err != nil {
			t.Errorf("Submit blocker: %v", err)
		}
	}()
	<-blocker.started

	const producers = 8
	jobs := make([]*countJob, producers)
	errs := make([]error, producers)
	var returned atomic.Int32
	for i := 0; i < producers; i++ {
		jobs[i] = &countJob{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.Submit(ctx, jobs[i])
			returned.Add(1)
		}(i)
	}
	// Let every producer queue behind the blocked dispatcher, then tear the
	// ring down around the running blocker.
	waitAdmitted(t, r, 1+producers)
	done := make(chan struct{})
	go func() {
		r.Close()
		if n, _ := admitted(r); n != 0 {
			t.Errorf("Close returned with %d submissions still in flight", n)
		}
		close(done)
	}()
	// Once Close has shut the ring nothing can have drained yet: the
	// blocker still holds the dispatcher.
	for {
		if _, closed := admitted(r); closed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("Close returned while the running job still held the dispatcher")
	default:
	}
	if n := returned.Load(); n != 0 {
		t.Fatalf("%d queued submissions returned before the running job finished", n)
	}
	close(blocker.release)
	wg.Wait()
	<-done

	if n := blocker.runs.Load(); n != 1 {
		t.Fatalf("blocker ran %d times, want 1", n)
	}
	for i, j := range jobs {
		runs := j.runs.Load()
		// All eight were admitted behind the blocker before Close, so all
		// eight drain: none runs.
		if !errors.Is(errs[i], ErrRingClosed) || runs != 0 {
			t.Fatalf("job %d: err %v after %d runs, want ErrRingClosed and 0", i, errs[i], runs)
		}
	}
	st := r.Stats()
	if st.Submitted != 1+producers || st.Completed != 1 || st.Drained != producers {
		t.Fatalf("stats = %+v, want Submitted=%d Completed=1 Drained=%d", st, 1+producers, producers)
	}
	// Late submissions against the closed ring fail cleanly, and Close
	// stays idempotent.
	if err := r.Submit(ctx, &countJob{}); !errors.Is(err, ErrRingClosed) {
		t.Fatalf("Submit after Close = %v, want ErrRingClosed", err)
	}
	r.Close()
}

// TestRingChaosCrashRestart tears rings down mid-stream under seeded
// producer schedules, then rebuilds on the same dispatcher thread — the
// module crash-restart discipline. Every job must complete exactly once
// (its own result or ErrRingClosed), never twice, across the crash.
func TestRingChaosCrashRestart(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	th, err := e.EnterResident(context.Background())
	if err != nil {
		t.Fatalf("EnterResident: %v", err)
	}
	defer e.LeaveResident(th)

	ctx := context.Background()
	for seed := uint64(0); seed < 5; seed++ {
		r := NewRing(e, th, 4)
		const producers = 4
		// The seed staggers how much work each producer enqueues before
		// the crash, exercising different drain interleavings.
		perProducer := 3 + int(seed%4)
		jobs := make([][]*countJob, producers)
		errs := make([][]error, producers)
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			jobs[w] = make([]*countJob, perProducer)
			errs[w] = make([]error, perProducer)
			for k := range jobs[w] {
				jobs[w][k] = &countJob{}
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range jobs[w] {
					errs[w][k] = r.Submit(ctx, jobs[w][k])
					if errs[w][k] != nil {
						// The crash landed; the module is gone.
						for rest := k + 1; rest < len(errs[w]); rest++ {
							errs[w][rest] = ErrRingClosed
						}
						return
					}
				}
			}(w)
		}
		// Crash after a seed-dependent number of completions.
		crashAt := uint64(1 + seed*2)
		for r.Stats().Completed < crashAt && r.Stats().Submitted < uint64(producers*perProducer) {
			time.Sleep(50 * time.Microsecond)
		}
		r.Close()
		wg.Wait()

		for w := range jobs {
			for k, j := range jobs[w] {
				runs := j.runs.Load()
				switch {
				case errs[w][k] == nil && runs != 1:
					t.Fatalf("seed %d: job %d/%d returned nil but ran %d times", seed, w, k, runs)
				case errors.Is(errs[w][k], ErrRingClosed) && runs != 0:
					t.Fatalf("seed %d: job %d/%d drained but ran %d times", seed, w, k, runs)
				case errs[w][k] != nil && !errors.Is(errs[w][k], ErrRingClosed):
					t.Fatalf("seed %d: job %d/%d unexpected error %v", seed, w, k, errs[w][k])
				}
			}
		}
		if st := r.Stats(); st.Submitted != st.Completed+st.Drained {
			t.Fatalf("seed %d: stats = %+v: Submitted != Completed+Drained", seed, st)
		}

		// Restart: a fresh ring on the same resident thread serves again.
		r2 := NewRing(e, th, 4)
		j := &countJob{}
		if err := r2.Submit(ctx, j); err != nil {
			t.Fatalf("seed %d: Submit after restart: %v", seed, err)
		}
		if j.runs.Load() != 1 {
			t.Fatalf("seed %d: restarted ring ran job %d times, want 1", seed, j.runs.Load())
		}
		r2.Close()
	}
}

// TestRingDoorbellDeterministic replays the same sequential submission
// pattern on two same-seed platforms: the virtual doorbell/poll accounting
// and the enclave transition counters must match bit for bit.
func TestRingDoorbellDeterministic(t *testing.T) {
	run := func() (RingStats, StatsSnapshot, simclock.Cycles) {
		p, err := NewPlatform(PlatformConfig{Seed: 7})
		if err != nil {
			t.Fatalf("NewPlatform: %v", err)
		}
		e, err := p.Build(context.Background(), testConfig())
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		defer e.Destroy()
		th, err := e.EnterResident(context.Background())
		if err != nil {
			t.Fatalf("EnterResident: %v", err)
		}
		defer e.LeaveResident(th)
		r := NewRing(e, th, 0)
		var acct simclock.Account
		ctx := simclock.WithAccount(context.Background(), &acct)
		for i := 0; i < 32; i++ {
			if err := r.Submit(ctx, &countJob{}); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		r.Close()
		return r.Stats(), e.Stats(), acct.Total()
	}
	stA, encA, cycA := run()
	stB, encB, cycB := run()
	if stA != stB {
		t.Fatalf("ring stats diverged across same-seed replays: %+v vs %+v", stA, stB)
	}
	if encA != encB {
		t.Fatalf("enclave stats diverged across same-seed replays: %+v vs %+v", encA, encB)
	}
	if cycA != cycB {
		t.Fatalf("charged cycles diverged across same-seed replays: %d vs %d", cycA, cycB)
	}
	// The first submission of an idle ring pays the doorbell ECALL; the
	// back-to-back rest ride the spinning dispatcher.
	if stA.Doorbells == 0 {
		t.Fatal("no doorbell charged on the first submission of an idle ring")
	}
	if stA.Doorbells == stA.Submitted {
		t.Fatal("every submission paid a doorbell; the virtual spin budget never absorbed one")
	}
}
