package exp

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Table is a rendered experiment result: the rows/series a paper figure
// or table reports. Every registry table builds its rows from
// measurements through add, which formats each numeric cell by
// measurement.cell and keeps the full-precision value behind it: Value
// reads a number where it is printed, by header column and row labels.
type Table struct {
	ID     string // experiment id, e.g. "fig9"
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry what the run itself found, e.g. a best setting.
	// Markdown prints the table's fixed notes after them, among them the
	// paper note rendered from its claims (Claims), so no note here
	// states a paper number.
	Notes []string
	// values is the value behind each cell of Rows, row-major; NaN
	// where a cell shows none (labels, trailing cells, AddRow rows).
	values []float64
}

// AddRow appends a row of preformatted cells, which hold no values. It
// is kept for callers outside the package that build tables by hand;
// nothing in internal/exp calls it.
func (t *Table) AddRow(cells ...string) {
	t.add(row{labels: cells})
}

// row is one table row before rendering: its leading label cells, the
// measurements its numeric cells show, and trailing label cells.
type row struct {
	labels []string
	ms     []measurement
	trail  []string
}

// add renders and appends rows: each row's labels, one cell per
// measurement, then its trailing labels. It grows the value grid to
// exactly its new size, because a report holds its tables to the end.
func (t *Table) add(rows ...row) {
	n := len(t.values)
	for _, r := range rows {
		n += len(r.labels) + len(r.ms) + len(r.trail)
	}
	vals := append(make([]float64, 0, n), t.values...)
	for _, r := range rows {
		cells := append(make([]string, 0, len(r.labels)+len(r.ms)+len(r.trail)), r.labels...)
		for _, m := range r.ms {
			cells = append(cells, m.cell())
		}
		cells = append(cells, r.trail...)
		for i := range cells {
			v := math.NaN()
			if j := i - len(r.labels); j >= 0 && j < len(r.ms) {
				v = r.ms[j].value
			}
			vals = append(vals, v)
		}
		t.Rows = append(t.Rows, cells)
	}
	t.values = vals
}

// Value returns the value behind the cell in Header column column of
// the one row whose leading cells equal labels, e.g. Value("PPW (norm)",
// "MobileNet-ImageNet", "FedGPO"). It reports false for an unknown
// column, for no or several such rows, and for a cell with no value.
func (t Table) Value(column string, labels ...string) (float64, bool) {
	col := slices.Index(t.Header, column)
	if col < 0 {
		return 0, false
	}
	at, off := -1, 0
	for _, r := range t.Rows {
		if len(r) >= len(labels) && slices.Equal(r[:len(labels)], labels) {
			if at >= 0 || col >= len(r) {
				return 0, false
			}
			at = off + col
		}
		off += len(r)
	}
	if at < 0 || at >= len(t.values) || math.IsNaN(t.values[at]) {
		return 0, false
	}
	return t.values[at], true
}

// Markdown renders the table as GitHub-flavored markdown (used by the
// EXPERIMENTS.md generator): its rows, the notes its run wrote, then
// the fixed notes of its id, which state its claims (paperClaims).
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
	fixed, _ := paperClaims(t.ID)
	for _, n := range slices.Concat(t.Notes, fixed) {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteString("\n")
	return b.String()
}
