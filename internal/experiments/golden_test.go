package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentTableGolden holds the whole experiment table — the
// rendered text of all 18 rows and the 9 CSV series, text and CSV taken
// from the same run as the CLI does — to testdata/golden/ at Seed 1,
// Iterations 60. The goldens were minted at the commit before the
// harness collapse, so every later commit that keeps them byte-identical
// has provably changed no printed figure; it is also the determinism
// check (a same-seed run must reproduce a committed file, not merely
// itself). Regenerate, for a deliberate change of a printed figure only,
// with EXPERIMENTS_UPDATE=1 and say which columns moved and why in the
// commit.
//
// Re-minted since: the EENTER/req columns of ablation and teecompare, in
// the commit that moved their census window off the cold request (it had
// folded the cold crossing's lazy-loading OCALLs into an integer division
// by n+1: 90 and 91 for the same SGX eUDM configuration, 89.9 and 90.0
// over the warm requests alone).
//
// Cells outside the determinism contract are masked on both sides:
// massreg's wall and speedup columns (wall clock) and the GOMAXPROCS its
// title quotes (host), shardscale's allocs/r and bytes/r (Go heap).
func TestExperimentTableGolden(t *testing.T) {
	cfg := Config{Seed: 1, Iterations: 60}
	dir := filepath.Join("testdata", "golden")
	update := os.Getenv("EXPERIMENTS_UPDATE") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, file string, got []byte) {
		path := filepath.Join(dir, file)
		if update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (mint with EXPERIMENTS_UPDATE=1): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden:\n--- got\n%s--- want\n%s", file, got, want)
		}
	}
	for _, e := range table {
		t.Run(e.Name, func(t *testing.T) {
			r, err := e.Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			var text bytes.Buffer
			r.Render(&text)
			check(t, e.Name+".txt", maskText(e.Name, text.Bytes()))
			series, ok := r.(CSVResult)
			if !ok {
				// A result that exports no series has no CSV golden.
				if _, err := os.Stat(filepath.Join(dir, e.Name+".csv")); err == nil {
					t.Fatalf("%s.csv is committed but the result exports no series", e.Name)
				}
				return
			}
			var csv bytes.Buffer
			if err := series.WriteCSV(&csv); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
			check(t, e.Name+".csv", maskCSV(e.Name, csv.Bytes()))
		})
	}
}

// maskedText names, per experiment, the data-row fields (negative: from
// the end) whose value is wall clock or Go heap; maskedCSV the same
// columns by header name.
var (
	maskedText = map[string][]int{"massreg": {3, -1}, "shardscale": {-2}}
	maskedCSV  = map[string][]string{
		"massreg":    {"wall_ms", "speedup"},
		"shardscale": {"allocs_per_reg", "bytes_per_reg"},
	}
	fieldRE      = regexp.MustCompile(`\s*\S+`)
	gomaxprocsRE = regexp.MustCompile(`GOMAXPROCS=\d+`)
)

// maskText replaces the masked fields of every data row (first field an
// integer, at least ten fields) together with their padding, so the
// other columns keep their alignment under the comparison.
func maskText(name string, out []byte) []byte {
	fields := maskedText[name]
	if fields == nil {
		return out
	}
	lines := strings.SplitAfter(gomaxprocsRE.ReplaceAllString(string(out), "GOMAXPROCS=~"), "\n")
	for i, line := range lines {
		spans := fieldRE.FindAllStringIndex(strings.TrimSuffix(line, "\n"), -1)
		if len(spans) < 10 {
			continue
		}
		if _, err := strconv.Atoi(strings.TrimSpace(line[spans[0][0]:spans[0][1]])); err != nil {
			continue
		}
		var b strings.Builder
		for j, span := range spans {
			masked := false
			for _, f := range fields {
				masked = masked || j == f || j == len(spans)+f
			}
			if masked {
				b.WriteString(" ~")
			} else {
				b.WriteString(line[span[0]:span[1]])
			}
		}
		lines[i] = b.String() + "\n"
	}
	return []byte(strings.Join(lines, ""))
}

func maskCSV(name string, out []byte) []byte {
	columns := maskedCSV[name]
	if columns == nil {
		return out
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	header := strings.Split(lines[0], ",")
	for i := 1; i < len(lines); i++ {
		cells := strings.Split(lines[i], ",")
		for j := range cells {
			for _, c := range columns {
				if header[j] == c {
					cells[j] = "~"
				}
			}
		}
		lines[i] = strings.Join(cells, ",")
	}
	return []byte(strings.Join(lines, "\n") + "\n")
}
