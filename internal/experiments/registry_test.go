package experiments

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
)

func TestTableComplete(t *testing.T) {
	want := []string{"ablation", "batching", "chaos", "e2e", "fig10", "fig7", "fig8", "fig9", "massreg", "ota", "shardscale", "storm", "table1", "table2", "table3", "table4", "table5", "teecompare"}
	if names := Names(); !slices.Equal(names, want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for _, exp := range table {
		if exp.Name == "" || exp.Description == "" || exp.Run == nil {
			t.Fatalf("incomplete experiment %+v", exp)
		}
	}
}

// run looks a row up, runs it and returns the result, the way the CLI
// does.
func run(t *testing.T, name string, cfg Config) Result {
	t.Helper()
	e, err := Lookup(name)
	if err != nil {
		t.Fatalf("Lookup(%s): %v", name, err)
	}
	r, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run %s: %v", name, err)
	}
	return r
}

func TestRunUnknown(t *testing.T) {
	_, err := Lookup("fig99")
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunStaticTable(t *testing.T) {
	var buf bytes.Buffer
	run(t, "table5", Config{}).Render(&buf)
	if !strings.Contains(buf.String(), "Table V") {
		t.Fatal("table5 output missing")
	}
}

func TestRunDynamic(t *testing.T) {
	var buf bytes.Buffer
	run(t, "fig9", Config{Seed: 3, Iterations: 20}).Render(&buf)
	if !strings.Contains(buf.String(), "Figure 9a") {
		t.Fatal("fig9 output missing")
	}
}

// TestWriteCSV: a figure's result exports its raw series; a static
// table's result exports none.
func TestWriteCSV(t *testing.T) {
	cfg := Config{Seed: 3, Iterations: 20}
	series, ok := run(t, "fig9", cfg).(CSVResult)
	if !ok {
		t.Fatal("fig9's result exports no series")
	}
	var buf bytes.Buffer
	if err := series.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "module,isolation,lf_median_us") {
		t.Fatalf("CSV header missing: %q", out)
	}
	if !strings.Contains(out, "eUDM,sgx,") {
		t.Fatal("CSV rows missing")
	}
	if _, ok := run(t, "table5", cfg).(CSVResult); ok {
		t.Fatal("table5's result exports a series")
	}
}
