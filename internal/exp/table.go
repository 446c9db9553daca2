package exp

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: the rows/series a paper figure
// or table reports.
type Table struct {
	ID     string // experiment id, e.g. "fig9"
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry per-experiment commentary (paper expectation vs
	// measured shape).
	Notes []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
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
