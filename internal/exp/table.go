package exp

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: the rows/series a paper figure
// or table reports. Every registry table builds its rows from
// measurements through add, so each numeric cell is formatted by
// measurement.cell.
type Table struct {
	ID     string // experiment id, e.g. "fig9"
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry per-experiment commentary (paper expectation vs
	// measured shape).
	Notes []string
}

// AddRow appends a row of preformatted cells. It is kept for callers
// outside the package that build tables by hand; nothing in
// internal/exp calls it.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// row is one table row before rendering: its leading label cells, the
// measurements its numeric cells show, and trailing label cells.
type row struct {
	labels []string
	ms     []measurement
	trail  []string
}

// add renders and appends rows: each row's labels, one cell per
// measurement, then its trailing labels.
func (t *Table) add(rows ...row) {
	for _, r := range rows {
		cells := append(make([]string, 0, len(r.labels)+len(r.ms)+len(r.trail)), r.labels...)
		for _, m := range r.ms {
			cells = append(cells, m.cell())
		}
		t.Rows = append(t.Rows, append(cells, r.trail...))
	}
}

// Markdown renders the table as GitHub-flavored markdown (used by the
// EXPERIMENTS.md generator).
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteString("\n")
	return b.String()
}
