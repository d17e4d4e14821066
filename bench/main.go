// Command bench is the repository's benchmark: it drives registrations
// through the public functions of each layer with its own driver loop, so
// that the system under test (everything below amf.HandleInitialUE and
// amf.HandleUplinkNAS) is timed apart from the load generator on both the
// virtual clock (the paper's quantities) and the wall clock (this Go
// implementation). See README.md for the metrics and workloads.
//
//	bench --workload reauth_fast --seed 1 --seconds 6 --trace 0
//
// prints every end-to-end metric of one workload and, as the last line of
// standard output, one JSON object; --trace 1 prints every per-layer metric
// and writes a Chrome trace and layers.json under --out. Without
// --workload all six run in turn. The exit code is non-zero when a parity
// or correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "workload to run (default: all six in turn)")
	seed := flag.Uint64("seed", 1, "seed of keys, population order, storm plans and virtual-time jitter")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced pass: per-layer metrics, spans and probes; 0 = end-to-end metrics")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory the traced pass writes its trace and layers.json to")
	printSpec := flag.Bool("describe", false, "print BENCHMARK.json as the program's own tables define it, and exit")
	flag.Parse()

	if *printSpec {
		data, err := describe()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*w}
	}

	ctx := context.Background()
	host := fingerprint()
	fmt.Printf("host: %d CPU (GOMAXPROCS %d), %s, %s; timer %.0f ns/read; calibration p10/p50/p90 %.1f/%.1f/%.1f us, noisy=%v\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPU, host.TimerNs,
		host.CalibP10Us, host.CalibP50Us, host.CalibP90Us, host.Noisy)
	fmt.Println("load: wall-clock load is closed-loop (in-process library, synchronous calls, workers <= CPUs);")
	fmt.Println("      open-loop load exists on the virtual arrival axis only, where generator lateness is 0 by construction")

	if err := parityCheck(ctx, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "bench: driver parity: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("parity: bench loop == gnb.RegisterUE/ReRegisterUE (64 registrations) and gnb.RunStorm (200 arrivals) on both virtual totals and outcomes")

	opts := options{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out, host: host, log: os.Stdout}
	ok := true
	for i := range selected {
		res, err := runWorkload(ctx, &selected[i], opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", selected[i].name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// options are the arguments of one run.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	out     string // directory for the traced pass's files
	host    hostInfo
	log     io.Writer // the human-readable report
}

// runWorkload measures one workload, writes its report to o.log and
// returns the result line.
func runWorkload(ctx context.Context, w *workload, o options) (*result, error) {
	var s *sample
	var err error
	if w.kind == storm {
		s, err = runStorm(ctx, w, o.seed, o.traced)
	} else {
		s, err = runClosed(ctx, w, o.seed, o.seconds, o.traced)
	}
	if err != nil {
		return nil, err
	}
	defer s.stop()

	problems := s.check()
	fmt.Fprintf(o.log, "\n%s (seed %d): %d worker(s), %d offered, %d registered, %d failed, %d shed in a %.2f s window; count metrics over the first %d\n",
		w.name, o.seed, len(s.rig.lanes), s.offered, s.registered, s.failed, s.shed, float64(s.windowNs)/1e9, len(flatten(s.prefix)))
	fmt.Fprintf(o.log, "  set-up x%d, the measured slice's: deploy %.1f ms, provision %.1f ms, attach %.1f ms, warm-up %.1f ms\n",
		len(s.setupS), float64(s.rig.deployNs)/1e6, float64(s.rig.provisionNs)/1e6,
		float64(s.rig.attachNs)/1e6, float64(s.rig.warmNs)/1e6)
	if s.replayIdentical {
		fmt.Fprintf(o.log, "  replay of the first %d operations: virtual cost identical\n", replayOps)
	} else {
		fmt.Fprintf(o.log, "  replay of the first %d operations: virtual cost differs, mean core by %+.3f %%\n", replayOps, 100*s.replayDrift)
	}
	if s.ladder != nil {
		s.ladder.print(o.log)
	}

	specs, v := endToEnd, s.endToEndValues()
	if o.traced {
		specs = perLayer
		if v, err = s.layerValues(ctx, o.host); err != nil {
			return nil, err
		}
	}
	m, err := withUnits(specs, v)
	if err != nil {
		return nil, err
	}
	printMetrics(o.log, specs, m)
	if o.traced {
		if err := s.writeTrace(o, m); err != nil {
			return nil, err
		}
	}
	for _, p := range problems {
		fmt.Fprintf(o.log, "  CHECK FAILED: %s\n", p)
	}
	return &result{
		Correct:   len(problems) == 0,
		Attempted: s.offered,
		Failed:    s.failed,
		Metrics:   m,
	}, nil
}
