package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Every experiment writes each of its tables down once, as an ordered list
// of columns over a row type. A column has a text cell, a CSV cell, or
// both, so the printed table and the exported series cannot drift apart: a
// column added to the list appears in the header and in every row of
// whichever forms it has.

// col is one column of a table over rows of type R.
type col[R any] struct {
	// head is the text header cell and width the printed width as in
	// %*s: negative left-aligns, 0 prints head and cells as they are (a
	// ragged last column). An empty head keeps the column out of the text.
	head  string
	width int
	text  func(R) string
	// name is the CSV header cell; empty keeps the column out of the series.
	name string
	csv  func(R) string
}

// str is a column whose cell reads the same in both forms.
func str[R any](head string, width int, name string, get func(R) string) col[R] {
	return col[R]{head, width, get, name, get}
}

// cnt is a counter column.
func cnt[R any, N int | uint64](head string, width int, name string, get func(R) N) col[R] {
	return str(head, width, name, func(r R) string { return fmt.Sprint(get(r)) })
}

// num is a float column: verb formats the text cell (precision and any
// unit suffix), the series carries three decimals.
func num[R any](head string, width int, verb, name string, get func(R) float64) col[R] {
	return col[R]{head, width, func(r R) string { return fmt.Sprintf(verb, get(r)) }, name, func(r R) string { return f(get(r)) }}
}

// pct is a share column: a percentage under verb in the text, the raw
// fraction in the series.
func pct[R any](head string, width int, verb, name string, get func(R) float64) col[R] {
	return col[R]{head, width, func(r R) string { return fmt.Sprintf(verb, 100*get(r)) }, name, func(r R) string { return f(get(r)) }}
}

// span is a duration column: rounded to round in the text, milliseconds
// in the series.
func span[R any](head string, width int, round time.Duration, name string, get func(R) time.Duration) col[R] {
	return col[R]{head, width, func(r R) string { return get(r).Round(round).String() }, name, func(r R) string { return f(ms(get(r))) }}
}

// grid is a table laid out over its rows: header and cells of both forms.
type grid struct {
	heads  []string
	widths []int
	text   [][]string
	names  []string
	csv    [][]string
}

// layout evaluates every column over every row.
func layout[R any](cols []col[R], rows []R) grid {
	var g grid
	for _, c := range cols {
		if c.head != "" {
			g.heads, g.widths = append(g.heads, c.head), append(g.widths, c.width)
		}
		if c.name != "" {
			g.names = append(g.names, c.name)
		}
	}
	for _, r := range rows {
		var text, series []string
		for _, c := range cols {
			if c.head != "" {
				text = append(text, c.text(r))
			}
			if c.name != "" {
				series = append(series, c.csv(r))
			}
		}
		g.text, g.csv = append(g.text, text), append(g.csv, series)
	}
	return g
}

func (g grid) render(w io.Writer) {
	for _, cells := range append([][]string{g.heads}, g.text...) {
		for i, cell := range cells {
			if i > 0 {
				fprintf(w, " ")
			}
			fprintf(w, "%*s", g.widths[i], cell)
		}
		fprintf(w, "\n")
	}
}

// report is an experiment's printed form — lines and tables in print
// order — plus the table it exports as a series. Result types embed it
// (Render only) or series (Render and WriteCSV).
type report struct {
	parts []any // string: one line; grid: header and rows
	csv   grid
}

func (r *report) line(format string, args ...any) {
	r.parts = append(r.parts, fmt.Sprintf(format, args...))
}

// table prints g at this point of the report and returns it, for the
// common case of exporting the same table.
func (r *report) table(g grid) grid {
	r.parts = append(r.parts, g)
	return g
}

// Render prints the report.
func (r *report) Render(w io.Writer) {
	for _, p := range r.parts {
		if g, ok := p.(grid); ok {
			g.render(w)
		} else {
			fprintf(w, "%s\n", p)
		}
	}
}

// series is a report whose csv table is exported: the raw series behind a
// figure, one row per box or point, plot-ready.
type series struct{ report }

// WriteCSV emits the series.
func (s *series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(s.csv.names); err != nil {
		return fmt.Errorf("experiments: write CSV header: %w", err)
	}
	if err := cw.WriteAll(s.csv.csv); err != nil {
		return fmt.Errorf("experiments: write CSV rows: %w", err)
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

func ms(d time.Duration) float64    { return float64(d) / float64(time.Millisecond) }
func micro(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fprintf writes a rendered line, ignoring write errors (render targets
// are in-memory or stdout).
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}
