// Command benchdiff compares two benchmark JSON reports (the
// BENCH_*.json artifacts written by `make bench`) and fails when a
// tracked metric regresses by more than the allowed fraction.
//
// Usage:
//
//	benchdiff [-max-regress 0.10] baseline.json candidate.json
//
// Reports are matched point-by-point on the "mode" field (the last point
// per mode wins: benchmark harness re-invocations append steady-state
// points after warm-up ones). Metric direction is inferred from the
// field name: latency-, allocation- and boundary-crossing-shaped fields
// are lower-is-better, throughput- and hit-shaped fields are
// higher-is-better, and anything unrecognized is reported but never
// fails the diff. A candidate point may also carry its own ceiling for a
// metric in a "<metric>_budget" field (the reports write the repository's
// allocation budget constant there); reaching it fails the diff whatever
// the baseline says. Exit status: 0 clean, 1 regression, 2 usage/IO error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// lowerBetter and higherBetter classify metric fields by name fragment.
// Classification is by substring so new fields following the repo's
// naming conventions are tracked without touching this tool.
var (
	// "registered"/"attempts" are cumulative counters that scale with the
	// harness iteration count, so they are deliberately unclassified.
	lowerBetter  = []string{"ns_per_op", "wall_ms", "alloc", "byte", "transition", "miss"}
	higherBetter = []string{"regs_per_sec", "hit", "reduction", "pooled", "speedup"}
)

// budgetSuffix marks a field as the ceiling of the metric it is named
// after rather than a metric of its own.
const budgetSuffix = "_budget"

// overBudget lists the metrics of one point that reached their declared
// budget, sorted by name.
func overBudget(point map[string]float64) []string {
	var over []string
	for f, budget := range point {
		metric, ok := strings.CutSuffix(f, budgetSuffix)
		if !ok {
			continue
		}
		if v, ok := point[metric]; ok && v >= budget {
			over = append(over, metric)
		}
	}
	sort.Strings(over)
	return over
}

type metricDir int

const (
	dirUnknown metricDir = iota
	dirLower
	dirHigher
)

func classify(field string) metricDir {
	for _, f := range lowerBetter {
		if strings.Contains(field, f) {
			return dirLower
		}
	}
	for _, f := range higherBetter {
		if strings.Contains(field, f) {
			return dirHigher
		}
	}
	return dirUnknown
}

// report is the generic shape shared by every BENCH_*.json artifact: a
// list of points keyed by mode, each carrying numeric metrics.
type report struct {
	Points []map[string]any `json:"points"`
}

func load(path string) (map[string]map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Points) == 0 {
		return nil, fmt.Errorf("%s: no points[] array", path)
	}
	out := make(map[string]map[string]float64)
	for _, p := range r.Points {
		mode, _ := p["mode"].(string)
		if mode == "" {
			continue
		}
		metrics := make(map[string]float64)
		for k, v := range p {
			if f, ok := v.(float64); ok {
				metrics[k] = f
			}
		}
		// Last point per mode wins (steady state after warm-up).
		out[mode] = metrics
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no points carry a mode field", path)
	}
	return out, nil
}

func main() {
	maxRegress := flag.Float64("max-regress", 0.10, "maximum tolerated fractional regression per metric")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-max-regress FRAC] baseline.json candidate.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cand, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	modes := make([]string, 0, len(base))
	for m := range base {
		if _, ok := cand[m]; ok {
			modes = append(modes, m)
		}
	}
	sort.Strings(modes)
	if len(modes) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no common modes between reports\n")
		os.Exit(2)
	}

	regressed := 0
	for _, mode := range modes {
		b, c := base[mode], cand[mode]
		fields := make([]string, 0, len(b))
		for f := range b {
			if _, ok := c[f]; ok && !strings.HasSuffix(f, budgetSuffix) {
				fields = append(fields, f)
			}
		}
		sort.Strings(fields)
		for _, f := range fields {
			dir := classify(f)
			old, new := b[f], c[f]
			if old == 0 {
				// No meaningful ratio; report only.
				if old != new {
					fmt.Printf("  ?   %-20s %-24s %12.4g -> %-12.4g (no baseline)\n", mode, f, old, new)
				}
				continue
			}
			delta := (new - old) / old
			worse := (dir == dirLower && delta > *maxRegress) ||
				(dir == dirHigher && delta < -*maxRegress)
			tag := "ok "
			switch {
			case worse:
				tag = "REG"
				regressed++
			case dir == dirUnknown:
				tag = "?  "
			}
			fmt.Printf("  %s %-20s %-24s %12.4g -> %-12.4g (%+.1f%%)\n",
				tag, mode, f, old, new, 100*delta)
		}
		for _, f := range overBudget(c) {
			regressed++
			fmt.Printf("  REG %-20s %-24s %12.4g reaches its budget of %.4g\n", mode, f, c[f], c[f+budgetSuffix])
		}
	}

	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) regressed by more than %.0f%% or reached their budget\n",
			regressed, 100**maxRegress)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no regression beyond %.0f%% across %d mode(s)\n", 100**maxRegress, len(modes))
}
