package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestClassify(t *testing.T) {
	cases := map[string]metricDir{
		"allocs_per_reg":       dirLower,
		"bytes_per_reg":        dirLower,
		"transitions_per_reg":  dirLower,
		"wall_ms":              dirLower,
		"pool_misses":          dirLower,
		"virtual_regs_per_sec": dirHigher,
		"wall_regs_per_sec":    dirHigher,
		"pool_hits":            dirHigher,
		"reduction_vs_seed":    dirHigher,
		"batch_size":           dirUnknown,
		"ues":                  dirUnknown,
		"registered":           dirUnknown,
		"attempts":             dirUnknown,
	}
	for field, want := range cases {
		if got := classify(field); got != want {
			t.Errorf("classify(%q) = %d, want %d", field, got, want)
		}
	}
}

func writeReport(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadLastPointPerModeWins(t *testing.T) {
	path := writeReport(t, "r.json", `{"points": [
		{"mode": "unbatched", "allocs_per_reg": 300},
		{"mode": "unbatched", "allocs_per_reg": 280},
		{"mode": "batched8", "allocs_per_reg": 290}
	]}`)
	got, err := load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got["unbatched"]["allocs_per_reg"] != 280 {
		t.Fatalf("unbatched allocs = %v, want the last point (280)", got["unbatched"]["allocs_per_reg"])
	}
	if got["batched8"]["allocs_per_reg"] != 290 {
		t.Fatalf("batched8 allocs = %v", got["batched8"]["allocs_per_reg"])
	}
}

func TestLoadRejectsEmptyAndModeless(t *testing.T) {
	if _, err := load(writeReport(t, "empty.json", `{"points": []}`)); err == nil {
		t.Fatal("empty points accepted")
	}
	if _, err := load(writeReport(t, "modeless.json", `{"points": [{"allocs_per_reg": 1}]}`)); err == nil {
		t.Fatal("modeless points accepted")
	}
	if _, err := load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestOverBudget(t *testing.T) {
	point := map[string]float64{
		"allocs_per_reg": 110, "allocs_per_reg_budget": 110,
		"bytes_per_reg": 7000, "bytes_per_reg_budget": 8000,
		"orphan_budget": 1,
	}
	if got := overBudget(point); len(got) != 1 || got[0] != "allocs_per_reg" {
		t.Fatalf("overBudget = %v, want [allocs_per_reg]", got)
	}
	point["allocs_per_reg"] = 109.9
	if got := overBudget(point); len(got) != 0 {
		t.Fatalf("overBudget = %v under every budget", got)
	}
}
