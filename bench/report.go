package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"shield5g/internal/sbi"
)

// spec names one metric. BENCHMARK.json carries the same names, units and
// directions; TestBenchmarkJSON keeps the two in step.
type spec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists the metrics a user of the core would see. Every workload
// reports every one of them, and none is ever 0. Each bound is at least
// three times the widest run-to-run spread measured on any workload (see
// README.md): shield on reauth_ring, whose SGX-attributable cost is small
// and whose doorbells depend on timing; fleet capacity on attach_sharded,
// where the busiest lane's share of 32 768 SUPIs changes with the seed;
// the wall metrics everywhere, on a shared host.
var endToEnd = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"setup_virtual_ms_p50", "ms", "lower", 0.01},
	{"setup_virtual_ms_p99", "ms", "lower", 0.02},
	{"core_virtual_ms_per_reg", "ms", "lower", 0.01},
	{"shield_virtual_ms_per_reg", "ms", "lower", 0.06},
	{"fleet_capacity_virtual_regs_per_s", "1/s", "higher", 0.05},
	{"sut_wall_us_per_reg", "us", "lower", 0.25},
	{"sut_wall_regs_per_s", "1/s", "higher", 0.25},
	{"allocs_per_reg", "count", "lower", 0.02},
	{"heap_live_mb_end", "MiB", "lower", 0.10},
	{"registered_share", "ratio", "higher", 0.001},
}

// runSeconds is the window length BENCHMARK.json asks the driver to pass.
const runSeconds = 6

// describe renders BENCHMARK.json from the tables above, so that the file
// at the root of the repository cannot drift from what the program prints:
// `bash bench/run.sh --describe > BENCHMARK.json`.
func describe() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricEntry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	file := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricEntry   `json:"end_to_end"`
		PerLayer   []metricEntry   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, workloadEntry{w.name, w.why})
	}
	for i := range endToEnd {
		sp := &endToEnd[i]
		file.EndToEnd = append(file.EndToEnd, metricEntry{sp.name, sp.unit, sp.better, &sp.bound})
	}
	for _, sp := range perLayer {
		file.PerLayer = append(file.PerLayer, metricEntry{sp.name, sp.unit, sp.better, nil})
	}
	data, err := json.MarshalIndent(file, "", "  ")
	return append(data, '\n'), err
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values maps metric names to measured values before units are attached.
type values map[string]float64

// withUnits pairs values with the units of specs. A value without a spec or a
// spec without a value is a harness bug and is reported as such.
func withUnits(specs []spec, v values) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, sp := range specs {
		x, ok := v[sp.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", sp.name)
		}
		out[sp.name] = metric{Value: x, Unit: sp.unit}
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return out, nil
}

// printMetrics writes one "name value unit" line per metric, in spec order.
func printMetrics(w io.Writer, specs []spec, m map[string]metric) {
	for _, sp := range specs {
		if x, ok := m[sp.name]; ok {
			fmt.Fprintf(w, "  %-58s %14.6g %s\n", sp.name, x.Value, x.Unit)
		}
	}
}

// setupMs extracts the setup series of records, in virtual ms.
func (s *sample) setupMs(regs []regRecord) []float64 {
	out := make([]float64, len(regs))
	for i, r := range regs {
		out[i] = s.ms(float64(r.setup))
	}
	return out
}

func flatten(lanes [][]regRecord) []regRecord {
	var out []regRecord
	for _, l := range lanes {
		out = append(out, l...)
	}
	return out
}

func all(regRecord) bool        { return true }
func untraced(r regRecord) bool { return !r.traced }
func isTraced(r regRecord) bool { return r.traced }

// sutSeries is the per-registration SUT wall cost, in microseconds, of the
// records for which keep holds.
func sutSeries(regs []regRecord, keep func(regRecord) bool) []float64 {
	out := make([]float64, 0, len(regs))
	for _, r := range regs {
		if keep(r) {
			out = append(out, float64(r.sutNs)/1e3)
		}
	}
	return out
}

// quietCost is one lane's quiet SUT cost in microseconds. The storm mixes
// three priority classes of very different cost, and a low quantile over
// mixed chunks would pick the chunks that happen to hold few expensive
// arrivals; so each class is estimated on its own series and the classes
// are weighted by their share of the lane. Closed loops have one class.
func quietCost(regs []regRecord, keep func(regRecord) bool) (float64, bool) {
	var total, cost float64
	for class := range sbi.Priority(3) {
		series := sutSeries(regs, func(r regRecord) bool { return r.class == class && keep(r) })
		total += float64(len(series))
		cost += float64(len(series)) * quiet(series)
	}
	return cost / total, total > 0
}

// quietPerLane is each lane's quiet SUT cost in microseconds.
func quietPerLane(lanes [][]regRecord, keep func(regRecord) bool) []float64 {
	out := make([]float64, 0, len(lanes))
	for _, l := range lanes {
		if q, ok := quietCost(l, keep); ok {
			out = append(out, q)
		}
	}
	return out
}

// laneLoads sums registrations and core cycles per serving replica.
func laneLoads(regs []regRecord, replicas int) (count []int, busy []float64) {
	count = make([]int, replicas)
	busy = make([]float64, replicas)
	for _, r := range regs {
		count[r.shard]++
		busy[r.shard] += float64(r.core)
	}
	return count, busy
}

// endToEndValues turns a sample into the end-to-end metrics.
func (s *sample) endToEndValues() values {
	prefix := flatten(s.prefix)
	n := float64(len(prefix))
	setups := s.setupMs(prefix)
	coreMs := s.ms(meanCore(prefix))

	_, busy := laneLoads(prefix, len(s.rig.slice.Shards))
	busiest := slices.Max(busy)

	// The traced pass records spans for every other block; the wall
	// estimator reads the blocks without spans on both passes.
	quietLanes := quietPerLane(s.window, untraced)
	var wallRate float64
	for _, q := range quietLanes {
		wallRate += 1e6 / q
	}

	return values{
		"setup_s":                           percentile(s.setupS, 0.5),
		"setup_virtual_ms_p50":              percentile(setups, 0.50),
		"setup_virtual_ms_p99":              percentile(setups, 0.99),
		"core_virtual_ms_per_reg":           coreMs,
		"shield_virtual_ms_per_reg":         s.ms(s.mainTwinCoreCycles - s.twinCoreCycles),
		"fleet_capacity_virtual_regs_per_s": n / (busiest / float64(s.freq())),
		"sut_wall_us_per_reg":               percentile(quietLanes, 0.5),
		"sut_wall_regs_per_s":               wallRate,
		"allocs_per_reg":                    float64(s.rtPrefix.mem.Mallocs-s.rtOpen.mem.Mallocs) / n,
		"heap_live_mb_end":                  float64(s.heapLive) / (1 << 20),
		"registered_share":                  float64(s.registered) / float64(s.offered),
	}
}
