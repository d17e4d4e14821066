package experiments

import (
	"context"
	"testing"
)

// grids lists the tables a report prints and the one it exports.
func (r *report) grids() []grid {
	out := []grid{r.csv}
	for _, p := range r.parts {
		if g, ok := p.(grid); ok {
			out = append(out, g)
		}
	}
	return out
}

// TestEveryTableIsOneColumnList holds all 19 rows to the rule that makes a
// forgotten column impossible: whatever prints a row loop is a grid laid
// out from one column list, so its header has exactly as many cells as
// each of its rows, in the text and in the series, and a CSV experiment's
// series is such a grid. Only the narrated OTA run and the three static
// tables print without one.
func TestEveryTableIsOneColumnList(t *testing.T) {
	gridless := map[string]bool{"ota": true, "table1": true, "table4": true, "table5": true}
	for _, e := range table {
		r, err := e.Run(context.Background(), Config{Seed: 1, Iterations: 10})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		tabled, ok := r.(interface{ grids() []grid })
		if ok == gridless[e.Name] {
			t.Errorf("%s: prints from a report = %v, want %v", e.Name, ok, !gridless[e.Name])
		}
		if !ok {
			continue
		}
		grids := tabled.grids()
		_, csv := r.(CSVResult)
		if series := grids[0]; csv != (len(series.names) > 0 && len(series.csv) > 0) {
			t.Errorf("%s: exports CSV = %v but its series has %d columns and %d rows", e.Name, csv, len(series.names), len(series.csv))
		}
		for i, g := range grids {
			if len(g.widths) != len(g.heads) {
				t.Errorf("%s grid %d: %d widths for %d header cells", e.Name, i, len(g.widths), len(g.heads))
			}
			for _, row := range g.text {
				if len(row) != len(g.heads) {
					t.Errorf("%s grid %d: text row of %d cells under a header of %d", e.Name, i, len(row), len(g.heads))
				}
			}
			for _, row := range g.csv {
				if len(row) != len(g.names) {
					t.Errorf("%s grid %d: series row of %d cells under a header of %d", e.Name, i, len(row), len(g.names))
				}
			}
		}
	}
}
