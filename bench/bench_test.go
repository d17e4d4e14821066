package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"shield5g/internal/chaos"
	"shield5g/internal/sbi"
)

func TestPercentile(t *testing.T) {
	series := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := percentile(series, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", series, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty series = %v, want 0", got)
	}
	if !reflect.DeepEqual(series, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", series)
	}
}

// TestQuietEstimator builds the series the estimator exists for: a steady
// per-registration cost with most chunks disturbed by a neighbour. The
// chunk median follows the disturbance, the quiet estimate does not.
func TestQuietEstimator(t *testing.T) {
	const chunks, base = 100, 16.0
	var series []float64
	for c := 0; c < chunks; c++ {
		cost := base
		if c%5 < 3 { // three chunks in five run 1.5x to 2.5x slower
			cost = base * (1.5 + float64(c%3)/2)
		}
		for i := 0; i < chunkSize; i++ {
			series = append(series, cost+float64(i%2)) // +0/+1 within a chunk
		}
	}
	series = append(series, 1e9) // a partial trailing chunk must be dropped

	means := chunkMeans(series)
	if len(means) != chunks {
		t.Fatalf("chunkMeans kept %d chunks, want %d", len(means), chunks)
	}
	if got, want := quiet(series), base+0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("quiet = %v, want the undisturbed chunk mean %v", got, want)
	}
	if median := percentile(means, 0.5); median < 1.4*base {
		t.Errorf("chunk median %v does not show the disturbance; the test series is wrong", median)
	}
	if got := quiet([]float64{1, 2, 3}); got != 2 {
		t.Errorf("quiet of less than a chunk = %v, want the mean 2", got)
	}
}

func TestSeedDeterminism(t *testing.T) {
	a, b, c := newPopulation(7, 64), newPopulation(7, 64), newPopulation(8, 64)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different populations")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same population")
	}
	sameOrder := true
	for i := range a {
		sameOrder = sameOrder && a[i].supi == c[i].supi
	}
	if sameOrder {
		t.Error("different seeds gave the same population order")
	}

	read := func(seed uint64) []byte {
		buf := make([]byte, 45) // not a multiple of the 8-byte refill
		if _, err := io.ReadFull(newSeededEntropy(seed), buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if !bytes.Equal(read(7), read(7)) || bytes.Equal(read(7), read(8)) {
		t.Error("the UE key stream does not follow the seed")
	}

	plan := func(seed uint64) *chaos.StormPlan {
		p, err := newPlan(seed, 1, 200)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if !reflect.DeepEqual(plan(7), plan(7)) || reflect.DeepEqual(plan(7), plan(8)) {
		t.Error("storm plans do not follow the seed")
	}
	if p := plan(7); p.ClassCount(sbi.PriorityEmergency) != 10 || p.ClassCount(sbi.PriorityReattach) != 120 {
		t.Errorf("storm mix is %d emergency / %d re-attach of 200, want exactly 10 / 120",
			p.ClassCount(sbi.PriorityEmergency), p.ClassCount(sbi.PriorityReattach))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own tables in
// step, and both inside the limits the benchmark contract sets.
func TestBenchmarkJSON(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with `bash bench/run.sh --describe > BENCHMARK.json`")
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", s)
		}
		if seen[s] {
			t.Errorf("name %q is used twice", s)
		}
		seen[s] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.name, len(w.why))
		}
	}
	setup := false
	for _, sp := range endToEnd {
		name(sp.name)
		if sp.bound <= 0 || sp.bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", sp.name, sp.bound)
		}
		setup = setup || (sp.name == "setup_s" && sp.unit == "s" && sp.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, sp := range perLayer {
		name(sp.name)
	}
}

func TestDriverParity(t *testing.T) {
	if err := parityCheck(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
}

// TestSmoke runs all six workloads, untraced and traced, at a hundredth of
// their size, and checks that each pass is correct and prints exactly the
// metrics BENCHMARK.json names for it.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	host := hostInfo{NProc: 1, GOMAXPROCS: 1}
	dir := t.TempDir()
	for _, w := range workloads {
		w.population = max(w.population/100, 16)
		w.prefix /= 100
		w.twin /= 100
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			res, err := runWorkload(ctx, &w, options{seed: 5, seconds: 0.05, traced: traced, out: dir, host: host, log: &log})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.name, traced, len(res.Metrics), len(specs))
			}
			for _, sp := range specs {
				m, ok := res.Metrics[sp.name]
				if !ok || m.Unit != sp.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want a finite value in %s", w.name, traced, sp.name, m, ok, sp.unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, sp.name)
				}
			}
		}

		// The trace must load as Chrome trace-event JSON.
		data, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("%s: trace does not load: %v", w.name, err)
		}
		if len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace is empty", w.name)
		}
		if _, err := os.Stat(filepath.Join(dir, w.name+".layers.json")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}
