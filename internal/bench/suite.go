package bench

import (
	"encoding/csv"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"graftlab/internal/stats"
	"graftlab/internal/tech"
)

// The cell is the suite's one result type: one measurement of the
// experiment matrix, named by (experiment, row, metric), with its run
// count, coefficient of variation and tail percentiles. Every
// experiment's Run returns its cells, and everything downstream reads
// them: the paper-shaped tables (each spec's Render), Figure 1's CSV,
// results.csv (CSV), REPORT.md (reportmd.go) and the regression gate
// (compare.go), which compares the cells its spec's Gate names. A
// BENCH_*.json report is a cell list with the run's host and config.

// DefaultCVThreshold is the stability bar: a cell whose coefficient of
// variation exceeds it is flagged unstable in results.csv and REPORT.md,
// and should not be trusted for fine-grained comparisons. 15% is lax by
// laboratory standards but realistic for shared CI runners.
const DefaultCVThreshold = 0.15

// Cell is one measurement of the suite matrix.
type Cell struct {
	Experiment string `json:"experiment"`
	Row        string `json:"row,omitempty"` // "" for experiment-level scalars
	Metric     string `json:"metric"`
	// Unit is "ns", "ops/s" or "bytes/s" for measurements, "ratio" for
	// dimensionless ones, "count" or "bytes" for workload sizes.
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// N is the measurement-run count (warmup excluded); 0 when the
	// metric is a scalar without repeated runs.
	N  int     `json:"n,omitempty"`
	CV float64 `json:"cv"`
	// Tail percentiles in ns; zero when the metric doesn't record them.
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
}

// Stable reports whether the cell's CV is within DefaultCVThreshold.
func (c Cell) Stable() bool { return c.CV <= DefaultCVThreshold }

// CellsOf returns the cells of one experiment, in order.
func CellsOf(cells []Cell, experiment string) []Cell {
	var out []Cell
	for _, c := range cells {
		if c.Experiment == experiment {
			out = append(out, c)
		}
	}
	return out
}

// cellList builds one experiment's cells in order.
type cellList struct {
	exp   string
	cells []Cell
}

// add appends a cell without a spread: a scalar when row is "".
func (l *cellList) add(row, metric, unit string, v float64) {
	l.cells = append(l.cells, Cell{Experiment: l.exp, Row: row, Metric: metric, Unit: unit, Value: v})
}

// sample appends row's timed cell: v in ns (the sample's mean, or that
// mean scaled to the full workload) with the sample's run count, CV and
// tail percentiles.
func (l *cellList) sample(row, metric string, v time.Duration, s stats.Sample) {
	l.cells = append(l.cells, Cell{
		Experiment: l.exp, Row: row, Metric: metric, Unit: "ns", Value: float64(v),
		N: s.N, CV: s.RelStd, P50: float64(s.P50), P95: float64(s.P95), P99: float64(s.P99),
	})
}

// derived appends a cell of row computed from the sample s, carrying
// s's run count and CV: the spread the gate judges it by.
func (l *cellList) derived(row, metric, unit string, v float64, s stats.Sample) {
	l.cells = append(l.cells, Cell{Experiment: l.exp, Row: row, Metric: metric, Unit: unit, Value: v, N: s.N, CV: s.RelStd})
}

// cellIndex looks one experiment's cells up by row and metric.
type cellIndex map[[2]string]Cell

func indexCells(cells []Cell) cellIndex {
	x := make(cellIndex, len(cells))
	for _, c := range cells {
		x[[2]string{c.Row, c.Metric}] = c
	}
	return x
}

func (x cellIndex) cell(row, metric string) (Cell, bool) {
	c, ok := x[[2]string{row, metric}]
	return c, ok
}

// v is the value of row's metric cell, 0 when there is none.
func (x cellIndex) v(row, metric string) float64 { return x[[2]string{row, metric}].Value }

// dur is v as a duration, for "ns" cells.
func (x cellIndex) dur(row, metric string) time.Duration { return time.Duration(x.v(row, metric)) }

// rowsWith returns, in order, the rows that hold a metric cell.
func rowsWith(cells []Cell, metric string) []string {
	var rows []string
	for _, c := range cells {
		if c.Metric == metric && c.Row != "" {
			rows = append(rows, c.Row)
		}
	}
	return rows
}

// pivot splits the rows holding metric, each named line+sep+column at
// its last sep, into the table lines and columns of a matrix table, both
// in first-seen order.
func pivot(cells []Cell, metric, sep string) (lines, cols []string) {
	for _, row := range rowsWith(cells, metric) {
		i := strings.LastIndex(row, sep)
		if i < 0 {
			continue
		}
		if line := row[:i]; !slices.Contains(lines, line) {
			lines = append(lines, line)
		}
		if col := row[i+len(sep):]; !slices.Contains(cols, col) {
			cols = append(cols, col)
		}
	}
	return lines, cols
}

// withSpread renders a timed cell the way the paper prints it:
// "mean(cv%)".
func withSpread(c Cell) string {
	return fmt.Sprintf("%s(%.1f%%)", stats.FormatDuration(time.Duration(c.Value)), c.CV*100)
}

// standsIn is the "stands in for" column of a technology row: the
// paper's name for the registry technology, or upcall for the
// user-level-server row.
func standsIn(row, upcall string) string {
	if row == upcallRow {
		return upcall
	}
	return tech.PaperName(tech.ID(row))
}

// upcallRow names the row of a graft behind a user-level server.
const upcallRow = "upcall-server"

// CSV renders cells as results.csv: a stable header then one line per
// cell, durations in nanoseconds (DurationsNote). Fields are quoted
// where they need it (an ablation label holds commas); a line without
// such a field is the plain comma-joined values.
func CSV(cells []Cell) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	w.Write([]string{"experiment", "row", "metric", "unit", "value", "n", "cv", "p50_ns", "p95_ns", "p99_ns", "stable"})
	for _, c := range cells {
		w.Write([]string{
			c.Experiment, c.Row, c.Metric, c.Unit, g(c.Value), strconv.Itoa(c.N),
			strconv.FormatFloat(c.CV, 'g', 6, 64), g(c.P50), g(c.P95), g(c.P99),
			strconv.FormatBool(c.Stable()),
		})
	}
	w.Flush()
	return b.String()
}

// perSecond is the rate of an operation taking d, 0 when d is.
func perSecond(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(time.Second) / float64(d)
}
