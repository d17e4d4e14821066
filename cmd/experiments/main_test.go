package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"shield5g"
)

// stubResult stands in for a measured result; stubSeries also exports CSV.
type stubResult struct{}

func (stubResult) Render(w io.Writer) { _, _ = io.WriteString(w, "stub\n") }

type stubSeries struct{ stubResult }

func (stubSeries) WriteCSV(w io.Writer) error { _, err := io.WriteString(w, "a,b\n1,2\n"); return err }

// TestAllRunsEachOnceAndWritesEveryCSV drives the real experiment table
// through the CLI loop with the measurements stubbed out: `-csvdir DIR
// all` used to write no CSV at all, and a named experiment with -csvdir
// ran twice. Every row must run exactly once, and a CSV file must appear
// for exactly the rows whose result exports a series — here every other
// row's stub.
func TestAllRunsEachOnceAndWritesEveryCSV(t *testing.T) {
	names := shield5g.Experiments()
	runs := make(map[string]int)
	var withCSV []string
	lookup := func(name string) (shield5g.Experiment, error) {
		exp, err := shield5g.LookupExperiment(name)
		if err != nil {
			return exp, err
		}
		hasCSV := slices.Index(names, name)%2 == 0
		if hasCSV {
			withCSV = append(withCSV, name)
		}
		exp.Run = func(context.Context, shield5g.ExperimentConfig) (shield5g.ExperimentResult, error) {
			runs[name]++
			if hasCSV {
				return stubSeries{}, nil
			}
			return stubResult{}, nil
		}
		return exp, nil
	}

	dir := filepath.Join(t.TempDir(), "csv")
	var out bytes.Buffer
	if err := runExperiments(context.Background(), lookup, names, shield5g.ExperimentConfig{}, &out, dir); err != nil {
		t.Fatalf("runExperiments: %v", err)
	}
	if len(withCSV) != (len(names)+1)/2 {
		t.Fatalf("stubbed CSV rows = %v", withCSV)
	}
	for _, name := range names {
		if runs[name] != 1 {
			t.Errorf("%s ran %d times, want 1", name, runs[name])
		}
		if !strings.Contains(out.String(), "=== "+name+" ===") {
			t.Errorf("%s: banner missing", name)
		}
		_, err := os.Stat(filepath.Join(dir, name+".csv"))
		if want := slices.Contains(withCSV, name); want != (err == nil) {
			t.Errorf("%s: CSV file present = %v, want %v", name, err == nil, want)
		}
	}
}

// TestNamedExperimentWritesItsSeries runs one real experiment through the
// loop: the CSV comes from the same result that was rendered.
func TestNamedExperimentWritesItsSeries(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	cfg := shield5g.ExperimentConfig{Seed: 3, Iterations: 10}
	if err := runExperiments(context.Background(), shield5g.LookupExperiment, []string{"fig9", "table5"}, cfg, &out, dir); err != nil {
		t.Fatalf("runExperiments: %v", err)
	}
	if !strings.Contains(out.String(), "Figure 9a") || !strings.Contains(out.String(), "Table V") {
		t.Fatalf("rendered output missing a table:\n%s", out.String())
	}
	series, err := os.ReadFile(filepath.Join(dir, "fig9.csv"))
	if err != nil || !strings.HasPrefix(string(series), "module,isolation,lf_median_us") {
		t.Fatalf("fig9.csv = %q, %v", series, err)
	}
	if err := runExperiments(context.Background(), shield5g.LookupExperiment, []string{"fig99"}, cfg, &out, dir); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
