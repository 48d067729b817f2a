// Package stats provides the text table the experiments and the CLIs
// render their results in.
package stats

import (
	"fmt"
	"strings"
)

// Table renders aligned text tables for experiment output.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; missing cells render empty, extra cells widen the
// table.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row of formatted cells: each argument is rendered with
// %v.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with right-aligned numeric-looking columns.
func (t *Table) String() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	cell := func(row []string, i int) string {
		if i < len(row) {
			return row[i]
		}
		return ""
	}
	for i := 0; i < cols; i++ {
		if i < len(t.headers) && len(t.headers[i]) > width[i] {
			width[i] = len(t.headers[i])
		}
		for _, r := range t.rows {
			if n := len(cell(r, i)); n > width[i] {
				width[i] = n
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", width[i], cell(row, i))
		}
		b.WriteByte('\n')
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		for i := 0; i < cols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", width[i]))
		}
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting; intended for
// numeric experiment output).
func (t *Table) CSV() string {
	var b strings.Builder
	if len(t.headers) > 0 {
		b.WriteString(strings.Join(t.headers, ","))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
