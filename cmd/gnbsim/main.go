// Command gnbsim drives mass UE registrations against a freshly deployed
// slice, the way the paper uses the gNBSIM RAN entity for its large-scale
// measurements.
//
// Usage:
//
//	gnbsim [-n 100] [-parallel 1] [-isolation monolithic|container|sgx|sev] [-seed N]
//	       [-chaos RATE] [-retries N] [-batch N] [-avpool N] [-switchless]
//	       [-shards N] [-shardsize K]
//	       [-storm FACTOR] [-limiter]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// -chaos enables the deterministic fault injector at the given total
// per-request fault rate (e.g. 0.1 injects a fault on 10% of SBI
// requests), and -retries bounds the full-registration attempts per UE
// (default 5 when chaos is on). -batch runs each worker's module
// requests over keep-alive sessions of the given depth, and -avpool
// enables the UDM's authentication-vector precomputation pool with the
// given per-SUPI ring depth — the two boundary-amortization mechanisms.
// -shards deploys the core as that many vertical replica slices
// (AMF+AUSF+UDM+P-AKA per shard) behind SUPI-affinity rendezvous-hash
// routing, and -shardsize caps how many of them this gNB's shuffle shard
// may use (0 = all). The run then reports per-shard lane statistics and
// the fleet makespan throughput next to the shared-clock figure.
// -cpuprofile and -memprofile write pprof profiles of the run for
// `go tool pprof`; the memory profile is an allocs profile taken after a
// final GC, covering every allocation of the run.
//
// -storm switches from the closed-loop mass driver to the open-loop
// signaling-storm replay: -n arrivals are offered at FACTOR times the
// core's modelled service rate (mix 5% emergency / 60% re-attach / 35%
// fresh attach), and -limiter arms the TS 29.500-style overload-control
// machinery (bounded-queue shedding, priority admission at the AMF,
// client-side throttling) for the comparison's "on" arm. The replay is one
// open-loop, one-shot driver, so -parallel, -batch, -retries and
// -switchless are rejected alongside -storm rather than silently ignored.
package main

import (
	"context"
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"shield5g"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gnbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 100, "number of UEs to register")
	parallel := fs.Int("parallel", 1, "concurrent registration workers (1 = sequential, deterministic)")
	isolation := fs.String("isolation", "sgx", "AKA isolation: monolithic, container, sgx or sev")
	seed := fs.Uint64("seed", 1, "jitter seed")
	chaosRate := fs.Float64("chaos", 0, "total per-request fault-injection rate (0 disables)")
	retries := fs.Int("retries", 0, "max registration attempts per UE (0 = 1, or 5 when -chaos is set)")
	batch := fs.Int("batch", 0, "keep-alive session depth: module requests per connection (0 = one connection per request)")
	avpool := fs.Int("avpool", 0, "UDM AV precomputation pool depth per SUPI (0 disables)")
	switchless := fs.Bool("switchless", false, "deploy the P-AKA modules with the switchless ECALL submission ring and route module requests through it (sgx only)")
	shards := fs.Int("shards", 1, "core replica count: vertical AMF+AUSF+UDM+P-AKA slices behind SUPI-affinity routing")
	shardSize := fs.Int("shardsize", 0, "shuffle-shard width: replicas this gNB's tenant may route to (0 = all)")
	stormFactor := fs.Float64("storm", 0, "signaling-storm overload factor: offer arrivals at this multiple of the core's service rate (0 disables)")
	limiter := fs.Bool("limiter", false, "arm the overload-control limiter (bounded-queue shedding, priority admission, client throttling) during a -storm run")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write an allocs profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	iso, err := shield5g.ParseIsolation(*isolation)
	if err != nil {
		fmt.Fprintf(stderr, "gnbsim: %v\n", err)
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "gnbsim: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "gnbsim: start CPU profile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "gnbsim: -memprofile: %v\n", err)
				return
			}
			defer func() { _ = f.Close() }()
			// Flush pending profile records so the written profile covers
			// the whole run.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "gnbsim: write allocs profile: %v\n", err)
			}
		}()
	}
	if *chaosRate < 0 || *chaosRate > 1 {
		fmt.Fprintf(stderr, "gnbsim: -chaos rate %v outside [0, 1]\n", *chaosRate)
		return 2
	}
	maxAttempts := *retries
	if maxAttempts <= 0 {
		maxAttempts = 1
		if *chaosRate > 0 {
			maxAttempts = 5
		}
	}

	if *batch < 0 || *avpool < 0 {
		fmt.Fprintf(stderr, "gnbsim: -batch and -avpool must be >= 0\n")
		return 2
	}

	if *shards < 1 {
		fmt.Fprintf(stderr, "gnbsim: -shards must be >= 1\n")
		return 2
	}
	if *shardSize < 0 || (*shardSize > *shards) {
		fmt.Fprintf(stderr, "gnbsim: -shardsize must be in [0, shards]\n")
		return 2
	}

	if *stormFactor < 0 {
		fmt.Fprintf(stderr, "gnbsim: -storm factor must be >= 0\n")
		return 2
	}
	if *limiter && *stormFactor == 0 {
		fmt.Fprintf(stderr, "gnbsim: -limiter needs a -storm run\n")
		return 2
	}
	// The storm replay is open-loop and one-shot on one connectionless
	// driver: it has no worker pool, keep-alive sessions, retries or ring
	// requests, and -switchless would deploy a different enclave identity
	// for nothing.
	stormless := ""
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "parallel", "batch", "retries", "switchless":
			stormless += " -" + f.Name
		}
	})
	if *stormFactor > 0 && stormless != "" {
		fmt.Fprintf(stderr, "gnbsim:%s: not used by a -storm run\n", stormless)
		return 2
	}

	if *switchless && iso != shield5g.SGX {
		fmt.Fprintf(stderr, "gnbsim: -switchless needs -isolation sgx\n")
		return 2
	}

	sliceCfg := shield5g.SliceConfig{
		Isolation: iso, Seed: *seed, AVPoolDepth: *avpool,
		Replicas: *shards, ShardSize: *shardSize,
		Switchless: *switchless,
	}
	if *chaosRate > 0 {
		// The decision seed is derived from -seed so one flag reproduces
		// both the cost draws and the fault schedule.
		mix := shield5g.DefaultChaosMix(*seed+101, *chaosRate)
		sliceCfg.Chaos = &mix
	}
	if *stormFactor > 0 {
		// The zero profile is the "limiter off" baseline: servers sense
		// load and queue but never reject.
		sliceCfg.Overload = &shield5g.OverloadProfile{}
		if *limiter {
			sliceCfg.Overload = shield5g.LimiterProfile()
		}
	}

	ctx := context.Background()
	//shieldlint:wallclock CLI reports real deploy latency to the operator
	start := time.Now()
	tb, err := shield5g.NewTestbed(ctx, sliceCfg)
	if err != nil {
		fmt.Fprintf(stderr, "gnbsim: deploy: %v\n", err)
		return 1
	}
	defer tb.Close()
	//shieldlint:wallclock CLI reports real deploy latency to the operator
	fmt.Fprintf(stdout, "slice deployed (%s isolation) in %v wall time\n", iso, time.Since(start).Round(time.Millisecond))
	if iso == shield5g.SGX {
		for _, kind := range []shield5g.ModuleKind{shield5g.EUDM, shield5g.EAUSF, shield5g.EAMF} {
			m := tb.Slice.Modules[kind]
			fmt.Fprintf(stdout, "  %s enclave load: %v (virtual)\n", kind, m.LoadDuration().Round(time.Millisecond))
		}
	}

	if *stormFactor > 0 {
		return runStorm(ctx, tb, *n, *stormFactor, *limiter, *seed, stdout, stderr)
	}

	result, err := tb.Slice.GNB.RegisterManyWith(ctx, shield5g.MassOptions{
		N:           *n,
		NewUE:       func(int) (*shield5g.UE, error) { return newUE(ctx, tb) },
		Parallelism: *parallel,
		MaxAttempts: maxAttempts,
		Chaos:       tb.Slice.Chaos,
		BatchSize:   *batch,
		Switchless:  *switchless,
	})
	if err != nil {
		fmt.Fprintf(stderr, "gnbsim: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "registered %d/%d UEs (%d failed) with %d worker(s)\n",
		result.Registered, *n, result.Failed, result.Parallelism)
	if *chaosRate > 0 {
		fmt.Fprintf(stdout, "chaos: rate %.2f, %d attempts total, injected %v\n",
			*chaosRate, result.Attempts, tb.Slice.Chaos.Counts())
		if len(result.Recovered) > 0 {
			classes := make([]string, 0, len(result.Recovered))
			for class := range result.Recovered {
				classes = append(classes, class)
			}
			sort.Strings(classes)
			for _, class := range classes {
				fmt.Fprintf(stdout, "chaos: recovered %d failed attempt(s) [%s] via retry\n",
					result.Recovered[class], class)
			}
		}
		// Every shard's modules, named by service, so a crash drawn on a
		// replica's module shows under that replica's name.
		var restarts uint64
		var restarted []string
		for _, shard := range tb.Slice.Shards {
			for _, kind := range []shield5g.ModuleKind{shield5g.EUDM, shield5g.EAUSF, shield5g.EAMF} {
				if m, ok := shard.Modules[kind]; ok && m.Restarts() > 0 {
					restarts += m.Restarts()
					restarted = append(restarted, fmt.Sprintf("%s:%d", m.ServiceName(), m.Restarts()))
				}
			}
		}
		if restarts > 0 {
			fmt.Fprintf(stdout, "chaos: %d module crash/redeploy cycle(s) survived (re-load + re-attest) %v\n", restarts, restarted)
		}
	}
	if *avpool > 0 {
		// The fleet view sums every replica's pool without double counting.
		pool := tb.Slice.AVPoolStats()
		fmt.Fprintf(stdout, "av pool: %d hits, %d misses, %d refills, %d banked vectors\n",
			pool.Hits, pool.Misses, pool.Refills, pool.Pooled)
	}
	if *switchless {
		for _, shard := range tb.Slice.Shards {
			for _, kind := range []shield5g.ModuleKind{shield5g.EUDM, shield5g.EAUSF, shield5g.EAMF} {
				m, ok := shard.Modules[kind]
				if !ok {
					continue
				}
				rs := m.RingStats()
				fmt.Fprintf(stdout, "ring %s: %d submitted, %d completed, %d doorbells, %d parks\n",
					m.ServiceName(), rs.Submitted, rs.Completed, rs.Doorbells, rs.Parks)
			}
		}
	}
	if result.Registered > 0 {
		sum := result.SetupTimes.Summarize()
		fmt.Fprintf(stdout, "session setup: median %v mean %v (virtual)\n",
			sum.Median.Round(time.Microsecond), sum.Mean.Round(time.Microsecond))
		fmt.Fprintf(stdout, "run: wall %v, virtual %v (%.2f virtual ms per registration, radio included)\n",
			result.Wall.Round(time.Millisecond), result.Virtual.Round(time.Millisecond),
			float64(result.Virtual)/float64(time.Millisecond)/float64(result.Registered))
	}
	fmt.Fprintf(stdout, "fleet: %.1f regs/s over makespan %v (busiest lane; lane_balance %.3f; epoch %d)\n",
		result.FleetRegsPerSec, result.FleetVirtual.Round(time.Millisecond),
		result.LaneBalance, tb.Slice.Router.Epoch())
	for i, st := range result.ShardStats {
		fmt.Fprintf(stdout, "  shard %d (%s): %d ok, %d failed, busy %v\n",
			i, tb.Slice.Shards[i].Name, st.Registered, st.Failed,
			st.Busy.Round(time.Millisecond))
	}
	if result.Failed > 0 {
		classes := make([]string, 0, len(result.FailureCounts))
		for class := range result.FailureCounts {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			fmt.Fprintf(stderr, "gnbsim: %d failure(s) [%s], first: %v\n",
				result.FailureCounts[class], class, result.FirstErrors[class])
		}
		return 1
	}
	return 0
}

// newUE provisions a fresh subscriber under a random key.
func newUE(ctx context.Context, tb *shield5g.Testbed) (*shield5g.UE, error) {
	k := make([]byte, 16)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("entropy: %w", err)
	}
	sub, err := tb.AddSubscriber(ctx, k, nil)
	if err != nil {
		return nil, err
	}
	return sub.UE, nil
}

// runStorm replays a seeded signaling storm (open-loop arrivals) against
// the deployed slice. The plan seed is derived from -seed so one flag
// reproduces both the cost draws and the arrival schedule.
func runStorm(ctx context.Context, tb *shield5g.Testbed, n int, factor float64, limiter bool, seed uint64, stdout, stderr io.Writer) int {
	res, err := tb.Slice.RunStorm(ctx, seed+43, n, factor,
		func(shield5g.Priority, int) (*shield5g.UE, error) { return newUE(ctx, tb) })
	if err != nil {
		fmt.Fprintf(stderr, "gnbsim: storm: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "storm: %d arrivals at %.0fx overload, limiter %v (window %v, makespan %v virtual)\n",
		n, factor, limiter, res.Window.Round(100*time.Microsecond), res.Makespan.Round(100*time.Microsecond))
	fmt.Fprintf(stdout, "%-10s %6s %6s %6s %6s %10s %10s %10s\n",
		"class", "offer", "ok", "shed", "fail", "goodput/s", "p99", "makespan")
	for c := len(res.Class) - 1; c >= 0; c-- {
		cr := res.Class[c]
		sum := cr.SetupTimes.Summarize()
		fmt.Fprintf(stdout, "%-10s %6d %6d %6d %6d %10.1f %10s %10s\n",
			shield5g.Priority(c).String(), cr.Offered, cr.Registered, cr.Shed, cr.Failed,
			cr.GoodputPerSec, sum.P99.Round(10*time.Microsecond),
			cr.Makespan.Round(100*time.Microsecond))
	}
	if tb.Slice.Admission != nil {
		fmt.Fprintf(stdout, "admission: %d dropped at the AMF's priority buckets\n",
			tb.Slice.Admission.Stats().TotalDropped())
	}
	var sheds uint64
	for _, st := range tb.Slice.OverloadStats() {
		sheds += st.TotalShed()
	}
	rs := tb.Slice.ResilienceStats()
	fmt.Fprintf(stdout, "overload: %d server sheds, %d client throttles, %d retries, %d breaker opens\n",
		sheds, rs.Throttled, rs.Retries, rs.Breaker.Opens)
	return 0
}
