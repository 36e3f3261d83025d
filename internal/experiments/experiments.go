// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment has one entry point returning a typed
// result plus a Render method producing the table the paper prints.
//
// Scales are configurable: unit tests run reduced configurations and pin
// each quality number EXPERIMENTS.md records; cmd/experiments, the one
// renderer of these tables, runs paper-comparable ones. Absolute runtimes
// differ from the paper (single-core Go vs. the authors' parallel C++
// library); the comparisons the paper draws — method orderings, precision
// plateaus, linear scaling — are preserved. See EXPERIMENTS.md for
// paper-vs-measured numbers.
package experiments

import (
	"fmt"
	"strings"
)

// Scale selects the dataset sizes experiments run at.
type Scale int

const (
	// ScaleSmall is for unit tests: seconds, not minutes.
	ScaleSmall Scale = iota
	// ScaleMedium is the default for cmd/experiments.
	ScaleMedium
	// ScaleFull approaches the paper's dataset sizes (cmd/experiments
	// -scale full).
	ScaleFull
)

// String returns the scale's display name.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// renderTable renders rows as a fixed-width text table.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func itoa(x int) string    { return fmt.Sprintf("%d", x) }
func f1s(x float64) string { return fmt.Sprintf("%.1f", x) }
func secs(ms int64) string { return fmt.Sprintf("%.2fs", float64(ms)/1000) }
