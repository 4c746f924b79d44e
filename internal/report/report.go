// Package report renders experiment results as aligned ASCII tables,
// terminal bar charts, and CSV — the output layer for the experiment
// regeneration commands.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled, column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row, stringifying each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the aligned table as a string.
func (t *Table) Render() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// Fprint writes the table to w.
func (t *Table) Fprint(w io.Writer) {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}

	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(row []string) {
		parts := make([]string, cols)
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		fmt.Fprintf(w, "|-%s-|\n", strings.Join(sep, "-|-"))
	}
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// CSV writes headers and rows as CSV.
func CSV(w io.Writer, headers []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if len(headers) > 0 {
		if err := cw.Write(headers); err != nil {
			return err
		}
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Bar renders a horizontal bar for frac ∈ [0,1] at the given width, with a
// trailing percentage, e.g. "██████░░░░ 60.0%".
func Bar(frac float64, width int) string {
	if width <= 0 {
		width = 40
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	filled := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", filled) + strings.Repeat(".", width-filled) +
		fmt.Sprintf(" %5.1f%%", frac*100)
}

// Series renders labeled bars with aligned labels — a terminal "figure".
func Series(w io.Writer, title string, labels []string, fracs []float64, width int) {
	if title != "" {
		fmt.Fprintf(w, "%s\n", title)
	}
	lw := 0
	for _, l := range labels {
		if len(l) > lw {
			lw = len(l)
		}
	}
	for i, l := range labels {
		f := 0.0
		if i < len(fracs) {
			f = fracs[i]
		}
		fmt.Fprintf(w, "  %s %s\n", pad(l, lw), Bar(f, width))
	}
}
