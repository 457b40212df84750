package bench

import (
	"fmt"
	"math"
	"strings"

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
// Flatten marks with a Gate, matched by (experiment, row, metric).
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
	// Run-count fallbacks for old-schema rows that lack per-row N: the
	// report's configured Runs, per side.
	baseN, curN int
}

func (c *comparer) skip(exp, row, reason string) {
	c.out.Skips = append(c.out.Skips, Skip{Experiment: exp, Row: row, Reason: reason})
}

func (c *comparer) note(exp, row, reason string) {
	c.out.Notes = append(c.out.Notes, Skip{Experiment: exp, Row: row, Reason: reason})
}

// compare gates one cell against its baseline, on the normalized values
// when the two runs measured different workload sizes.
func (c *comparer) compare(base, cur Cell, normalized bool) {
	metric, was, now := cur.Metric, base.Value, cur.Value
	if normalized {
		metric, was, now = "normalized", base.Gate.Normalized, cur.Gate.Normalized
	}
	n1, n2 := base.N, cur.N
	if n1 <= 0 {
		n1 = c.baseN
	}
	if n2 <= 0 {
		n2 = c.curN
	}
	d := stats.CohensDStats(was, base.CV*was, n1, now, cur.CV*now, n2)
	cell := CellComparison{
		Experiment: cur.Experiment, Row: cur.Row, Metric: metric,
		Baseline: was, Current: now,
		BaselineCV: base.CV, CurrentCV: cur.CV,
		EffectSize: d, HigherBetter: strings.HasSuffix(cur.Unit, "/s"),
	}
	if was > 0 {
		cell.Ratio = now / was
	}
	tol := max(c.tol, cur.Gate.Floor)
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

// configRuns extracts the configured run count from a report, as the N
// fallback for old-schema rows.
func configRuns(r *Report) int {
	if r != nil && r.Config != nil {
		return r.Config.Runs
	}
	return 0
}

// gatedCells groups a report's gated cells by experiment, in Flatten's
// order.
func gatedCells(r *Report) map[string][]Cell {
	out := map[string][]Cell{}
	for _, cl := range Flatten(r, 0) {
		if cl.Gate != nil {
			out[cl.Experiment] = append(out[cl.Experiment], cl)
		}
	}
	return out
}

// CompareReports diffs current against baseline under opts. It walks the
// gated cells of Flatten(baseline) and Flatten(current), experiment by
// experiment in matrix order, matching them by (experiment, row, metric)
// and judging each by its Gate. A row present only in the current report
// (a technology added after the baseline was archived) or only in the
// baseline is recorded as a skip, never a regression, so old baselines
// keep gating new runs as the registry grows. Raw durations are compared
// only when workload sizes match — otherwise the dimensionless
// normalized column stands in (noted in Comparison.Notes), so a
// paper-scale baseline can still gate a quick-scale rerun.
func CompareReports(baseline, current *Report, opts CompareOptions) *Comparison {
	c := &comparer{
		tol:   opts.Tolerance,
		eff:   opts.effectThreshold(),
		baseN: configRuns(baseline),
		curN:  configRuns(current),
	}
	base, cur := gatedCells(baseline), gatedCells(current)
	for _, spec := range Experiments() {
		c.experiment(spec.Name, base[spec.Name], cur[spec.Name])
	}
	return &c.out
}

// experiment gates one experiment's cells: an experiment either report
// lacks, and a workload-size mismatch, are named once for the whole
// experiment, then each cell is matched with its baseline by row and
// metric.
func (c *comparer) experiment(exp string, base, cur []Cell) {
	switch {
	case len(base) == 0 && len(cur) == 0:
		return
	case len(cur) == 0:
		c.skip(exp, "", "experiment in baseline but not in current run")
		return
	case len(base) == 0:
		c.skip(exp, "", "experiment in current run but not in baseline")
		return
	}
	g, normalized := cur[0].Gate, false
	if bs := base[0].Gate.Size; bs != g.Size {
		reason := fmt.Sprintf(g.Mismatch, bs, g.Size)
		if g.Incomparable {
			c.skip(exp, "", reason)
			return
		}
		c.note(exp, "", reason)
		normalized = true
	}
	type key struct{ row, metric string }
	baseCells := make(map[key]Cell, len(base))
	for _, b := range base {
		baseCells[key{b.Row, b.Metric}] = b
	}
	inCur := make(map[key]bool, len(cur))
	for _, cl := range cur {
		k := key{cl.Row, cl.Metric}
		inCur[k] = true
		b, ok := baseCells[k]
		if !ok {
			c.skip(exp, cl.Row, "row absent from baseline")
			continue
		}
		c.compare(b, cl, normalized)
	}
	for _, b := range base {
		if !inCur[key{b.Row, b.Metric}] {
			c.skip(exp, b.Row, "row absent from current run")
		}
	}
}
