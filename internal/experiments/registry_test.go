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

func TestRunUnknown(t *testing.T) {
	err := Run(context.Background(), "fig99", Config{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunStaticTable(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(context.Background(), "table5", Config{}, &buf); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(buf.String(), "Table V") {
		t.Fatal("table5 output missing")
	}
}

func TestRunDynamic(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(context.Background(), "fig9", Config{Seed: 3, Iterations: 20}, &buf); err != nil {
		t.Fatalf("Run fig9: %v", err)
	}
	if !strings.Contains(buf.String(), "Figure 9a") {
		t.Fatal("fig9 output missing")
	}
}

func TestWriteCSV(t *testing.T) {
	cfg := Config{Seed: 3, Iterations: 20}
	var buf bytes.Buffer
	if err := WriteCSV(context.Background(), "fig9", cfg, &buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "module,isolation,lf_median_us") {
		t.Fatalf("CSV header missing: %q", out)
	}
	if !strings.Contains(out, "eUDM,sgx,") {
		t.Fatal("CSV rows missing")
	}
	if err := WriteCSV(context.Background(), "table5", cfg, &buf); err == nil {
		t.Fatal("CSV export for non-figure experiment accepted")
	}
	want := []string{"batching", "chaos", "fig10", "fig7", "fig8", "fig9", "massreg", "shardscale", "storm"}
	if got := CSVNames(); !slices.Equal(got, want) {
		t.Fatalf("CSVNames = %v, want %v", got, want)
	}
}
