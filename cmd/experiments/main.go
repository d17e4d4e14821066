// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments [-seed N] [-iterations N] [-csvdir DIR] all
//	experiments fig7 fig9 table2 ...
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"shield5g"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Uint64("seed", 1, "jitter seed for reproducible virtual-time measurements")
	iterations := flag.Int("iterations", 500, "samples per configuration (paper: 500)")
	maxUEs := flag.Int("maxues", 3, "UE sweep depth for table3 (paper registers up to 10)")
	csvDir := flag.String("csvdir", "", "also write plot-friendly CSV series for the experiments that export one into this directory")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Parse()

	if *list {
		for _, name := range shield5g.Experiments() {
			fmt.Println(name)
		}
		return 0
	}

	names := flag.Args()
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "usage: experiments [-seed N] [-iterations N] [-csvdir DIR] all | <name>...")
		fmt.Fprintf(os.Stderr, "experiments: %v\n", shield5g.Experiments())
		return 2
	}
	if len(names) == 1 && names[0] == "all" {
		names = shield5g.Experiments()
	}
	cfg := shield5g.ExperimentConfig{Seed: *seed, Iterations: *iterations, MaxUEs: *maxUEs}
	if err := runExperiments(context.Background(), shield5g.LookupExperiment, names, cfg, os.Stdout, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	return 0
}

// runExperiments runs each named experiment once: the one result is
// rendered to w and, when csvDir is set and the result exports a series,
// written to csvDir/<name>.csv as well. Like Render, the banners ignore
// write errors on w (stdout or an in-memory buffer).
func runExperiments(ctx context.Context, lookup func(string) (shield5g.Experiment, error),
	names []string, cfg shield5g.ExperimentConfig, w io.Writer, csvDir string) error {
	for _, name := range names {
		exp, err := lookup(name)
		if err != nil {
			return err
		}
		_, _ = fmt.Fprintf(w, "\n=== %s ===\n", name)
		result, err := exp.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		result.Render(w)
		if series, ok := result.(shield5g.ExperimentCSV); ok && csvDir != "" {
			path, err := writeCSV(csvDir, name, series)
			if err != nil {
				return fmt.Errorf("%s CSV: %w", name, err)
			}
			_, _ = fmt.Fprintf(w, "(series written to %s)\n", path)
		}
	}
	return nil
}

func writeCSV(dir, name string, series shield5g.ExperimentCSV) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer func() { _ = f.Close() }()
	if err := series.WriteCSV(f); err != nil {
		return "", err
	}
	return path, f.Close()
}
