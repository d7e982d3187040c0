// Package harness provides the experiment scaffolding that regenerates the
// paper's evaluation (Figure 3): wall-clock measurement with the paper's
// timeout semantics ("Time out after 24h") and aligned table rendering so
// cmd/valmod-experiments prints the same rows/series the paper plots.
package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"
)

// Measurement is one timed cell of an experiment table.
type Measurement struct {
	Elapsed  time.Duration
	TimedOut bool
	Err      error
}

// String renders the cell the way the paper's plots annotate it.
func (m Measurement) String() string {
	switch {
	case m.Err != nil:
		return "ERROR"
	case m.TimedOut:
		return "TIMEOUT"
	default:
		return FormatDuration(m.Elapsed)
	}
}

// FormatDuration renders a duration with sensible rounding for tables.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(100 * time.Millisecond).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.String()
	}
}

// Timed runs fn under a wall-clock budget. fn must honor ctx cancellation
// (all suite algorithms do, between lengths); the measurement reports
// whether the budget expired. budget ≤ 0 means unlimited.
func Timed(budget time.Duration, fn func(ctx context.Context) error) Measurement {
	ctx := context.Background()
	cancel := func() {}
	if budget > 0 {
		ctx, cancel = context.WithTimeout(ctx, budget)
	}
	defer cancel()
	start := time.Now()
	err := fn(ctx)
	elapsed := time.Since(start)
	m := Measurement{Elapsed: elapsed}
	// A run is only a timeout when the budget expired AND the function
	// aborted because of it; a run that finished late still reports its
	// true elapsed time.
	if ctx.Err() != nil && err != nil {
		m.TimedOut = true
		return m
	}
	m.Err = err
	return m
}

// Table accumulates rows of an experiment and renders them aligned.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; cells are stringified with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
			return err
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
