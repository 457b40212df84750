package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"graftlab/internal/stats"
)

// The regression checker turns archived BENCH_*.json reports into a
// gate: rerun an experiment, compare it against a committed baseline,
// and fail when a metric moved in the bad direction by BOTH a
// practically significant amount (the relative tolerance) AND a
// statistically significant one (Cohen's d at or above the effect
// threshold). A noisy cell whose confidence interval swallows the move
// reads "noise", not "regression" — and cannot pass or fail by luck.
// Improvements never fail the gate. The gate reads only cells: the ones
// each experiment's Gate names, matched by (experiment, row, metric).
// Everything the comparison could NOT check is reported explicitly:
// skipped experiments, rows absent from either report, and
// raw-vs-normalized fallbacks all land in the skip summary instead of
// silently shrinking the gate.

// CompareOptions tunes the gate.
type CompareOptions struct {
	// Tolerance is the practical-significance floor: a relative move
	// within it never regresses, however consistent (0.30 allows 30%).
	Tolerance float64
	// EffectThreshold is the minimum |Cohen's d| for a move to count as
	// statistically significant; 0 means stats.EffectLarge (0.8).
	EffectThreshold float64
}

func (o CompareOptions) effectThreshold() float64 {
	if o.EffectThreshold > 0 {
		return o.EffectThreshold
	}
	return stats.EffectLarge
}

// Cell verdicts.
const (
	VerdictOK         = "ok"         // within tolerance
	VerdictImproved   = "improved"   // significantly better
	VerdictNoise      = "noise"      // moved beyond tolerance, but inside the cell's own variance
	VerdictRegression = "regression" // worse by tolerance AND effect size
)

// CellComparison is one compared metric with the statistics behind its
// verdict — what `graftbench -check-against` prints per row.
type CellComparison struct {
	Experiment string  `json:"experiment"`
	Row        string  `json:"row"`
	Metric     string  `json:"metric"`
	Baseline   float64 `json:"baseline"` // ns for durations
	Current    float64 `json:"current"`
	Ratio      float64 `json:"ratio"` // Current / Baseline
	// Coefficients of variation on each side (0 when the report carried
	// no variance for this metric, e.g. scale throughput cells).
	BaselineCV float64 `json:"baseline_cv"`
	CurrentCV  float64 `json:"current_cv"`
	// EffectSize is Cohen's d of current vs baseline: positive means
	// current is larger. ±Inf when both sides are variance-free but
	// differ — a deterministic shift is maximally significant.
	EffectSize float64 `json:"effect_size"`
	// HigherBetter records the metric's good direction (throughputs).
	HigherBetter bool   `json:"higher_better,omitempty"`
	Verdict      string `json:"verdict"`
}

// String renders one gated cell for the CLI check output: both values,
// the ratio, each side's coefficient of variation, Cohen's d, and the
// verdict.
func (c CellComparison) String() string {
	return fmt.Sprintf("%s %s %s: %.4g -> %.4g (x%.2f, CV %.1f%% -> %.1f%%, d=%s) %s",
		c.Experiment, c.Row, c.Metric, c.Baseline, c.Current, c.Ratio,
		c.BaselineCV*100, c.CurrentCV*100, formatD(c.EffectSize), c.Verdict)
}

// formatD prints Cohen's d compactly, including the infinite
// (variance-free) case.
func formatD(d float64) string {
	switch {
	case math.IsInf(d, 1):
		return "+inf"
	case math.IsInf(d, -1):
		return "-inf"
	default:
		return fmt.Sprintf("%.2f", d)
	}
}

// Skip is one thing the comparison could not (or did not) check.
type Skip struct {
	Experiment string `json:"experiment"`
	// Row is empty when the whole experiment was skipped.
	Row    string `json:"row,omitempty"`
	Reason string `json:"reason"`
}

func (s Skip) String() string {
	if s.Row == "" {
		return fmt.Sprintf("%s: %s", s.Experiment, s.Reason)
	}
	return fmt.Sprintf("%s %s: %s", s.Experiment, s.Row, s.Reason)
}

// Comparison is the full result of CompareReports.
type Comparison struct {
	Cells []CellComparison `json:"cells"`
	// Skips lists experiments and rows excluded from the gate entirely.
	Skips []Skip `json:"skips,omitempty"`
	// Notes lists comparisons that proceeded in a degraded form (e.g.
	// raw durations replaced by the normalized column on a workload-size
	// mismatch).
	Notes []Skip `json:"notes,omitempty"`
}

// Compared is the number of metrics actually gated.
func (c *Comparison) Compared() int { return len(c.Cells) }

// Regressions extracts the failing cells.
func (c *Comparison) Regressions() []CellComparison {
	var regs []CellComparison
	for _, cell := range c.Cells {
		if cell.Verdict == VerdictRegression {
			regs = append(regs, cell)
		}
	}
	return regs
}

// SkipSummary renders everything the gate did not fully check; "" when
// nothing was skipped or degraded.
func (c *Comparison) SkipSummary() string {
	if len(c.Skips) == 0 && len(c.Notes) == 0 {
		return ""
	}
	var b strings.Builder
	if len(c.Skips) > 0 {
		exps, rows := 0, 0
		for _, s := range c.Skips {
			if s.Row == "" {
				exps++
			} else {
				rows++
			}
		}
		fmt.Fprintf(&b, "skipped (not gated): %d experiment(s), %d row(s)\n", exps, rows)
		for _, s := range c.Skips {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	if len(c.Notes) > 0 {
		b.WriteString("degraded comparisons:\n")
		for _, n := range c.Notes {
			fmt.Fprintf(&b, "  %s\n", n)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// comparer accumulates cells and skips while walking the two reports.
type comparer struct {
	out Comparison // result under construction
	tol float64
	eff float64
}

func (c *comparer) skip(exp, row, reason string) {
	c.out.Skips = append(c.out.Skips, Skip{Experiment: exp, Row: row, Reason: reason})
}

func (c *comparer) note(exp, row, reason string) {
	c.out.Notes = append(c.out.Notes, Skip{Experiment: exp, Row: row, Reason: reason})
}

// compare judges one cell against its baseline with the tolerance floor.
func (c *comparer) compare(base, cur Cell, floor float64) {
	was, now := base.Value, cur.Value
	d := stats.CohensDStats(was, base.CV*was, base.N, now, cur.CV*now, cur.N)
	cell := CellComparison{
		Experiment: cur.Experiment, Row: cur.Row, Metric: cur.Metric,
		Baseline: was, Current: now,
		BaselineCV: base.CV, CurrentCV: cur.CV,
		EffectSize: d, HigherBetter: strings.HasSuffix(cur.Unit, "/s"),
	}
	if was > 0 {
		cell.Ratio = now / was
	}
	tol := max(c.tol, floor)
	worse := was > 0 && now > was*(1+tol)
	better := was > 0 && now < was*(1-tol)
	if cell.HigherBetter {
		worse, better = better, worse
	}
	significant := math.Abs(d) >= c.eff
	switch {
	case worse && significant:
		cell.Verdict = VerdictRegression
	case worse:
		cell.Verdict = VerdictNoise
	case better && significant:
		cell.Verdict = VerdictImproved
	default:
		cell.Verdict = VerdictOK
	}
	c.out.Cells = append(c.out.Cells, cell)
}

// CompareReports diffs current against baseline under opts. It walks the
// gated experiments in matrix order (Experiments), matching each current
// cell of the gated metric with the baseline cell of the same row and
// judging it by the experiment's Gate. A row present only in the current
// report (a technology added after the baseline was archived) or only in
// the baseline is recorded as a skip, never a regression, so old
// baselines keep gating new runs as the registry grows. Raw durations
// are compared only when workload sizes match — otherwise the
// dimensionless normalized cells stand in (noted in Comparison.Notes), so
// a paper-scale baseline can still gate a quick-scale rerun.
func CompareReports(baseline, current *Report, opts CompareOptions) *Comparison {
	c := &comparer{tol: opts.Tolerance, eff: opts.effectThreshold()}
	for _, spec := range Experiments() {
		if spec.Gate != nil {
			c.experiment(spec.Name, *spec.Gate, CellsOf(baseline.Cells, spec.Name), CellsOf(current.Cells, spec.Name))
		}
	}
	return &c.out
}

// sizeStamp formats an experiment's workload-size cell, "" when it has
// none: a duration for a time, the plain number otherwise.
func sizeStamp(cells []Cell, metric string) string {
	for _, c := range cells {
		if c.Row == "" && c.Metric == metric {
			if c.Unit == "ns" {
				return time.Duration(c.Value).String()
			}
			return strconv.FormatFloat(c.Value, 'f', -1, 64)
		}
	}
	return ""
}

// experiment gates one experiment's cells: an experiment either report
// lacks, and a workload-size mismatch, are named once for the whole
// experiment, then each cell is matched with its baseline by row.
func (c *comparer) experiment(exp string, g Gate, base, cur []Cell) {
	metric := g.Metric
	switch nb, nc := len(rowsWith(base, metric)), len(rowsWith(cur, metric)); {
	case nb == 0 && nc == 0:
		return
	case nc == 0:
		c.skip(exp, "", "experiment in baseline but not in current run")
		return
	case nb == 0:
		c.skip(exp, "", "experiment in current run but not in baseline")
		return
	}
	if bs, cs := sizeStamp(base, g.Size), sizeStamp(cur, g.Size); bs != cs {
		reason := fmt.Sprintf(g.Mismatch, bs, cs)
		if g.Incomparable {
			c.skip(exp, "", reason)
			return
		}
		c.note(exp, "", reason)
		metric = "normalized"
	}
	baseCells, curCells := indexCells(base), indexCells(cur)
	for _, row := range rowsWith(cur, metric) {
		b, ok := baseCells.cell(row, metric)
		if !ok {
			c.skip(exp, row, "row absent from baseline")
			continue
		}
		cl, _ := curCells.cell(row, metric)
		c.compare(b, cl, g.Floor)
	}
	for _, row := range rowsWith(base, metric) {
		if _, ok := curCells.cell(row, metric); !ok {
			c.skip(exp, row, "row absent from current run")
		}
	}
}
