package bench

import (
	"fmt"
	"strings"
	"time"

	"graftlab/internal/stats"
)

// ReportOptions parameterizes the generated REPORT.md.
type ReportOptions struct {
	// BaselinePath names the archived report the comparison section was
	// gated against ("" when no comparison ran).
	BaselinePath string
	// Tolerance and EffectThreshold echo the gate's settings into the
	// report so an archived REPORT.md is self-describing.
	Tolerance       float64
	EffectThreshold float64
}

// fmtCellValue renders a cell value in its natural unit.
func fmtCellValue(c Cell) string {
	switch c.Unit {
	case "ns":
		return stats.FormatDuration(time.Duration(c.Value))
	case "ops/s":
		return fmt.Sprintf("%.0f/s", c.Value)
	case "bytes/s":
		return fmt.Sprintf("%.2f MB/s", c.Value/(1<<20))
	default:
		return fmt.Sprintf("%g", c.Value)
	}
}

// GenerateReportMD renders the suite's REPORT.md: the methodology header
// (scale, warmup, runs, seed, host), one stability-flagged table per
// experiment, and — when a comparison ran — the effect-size verdicts and
// the explicit skip summary. cmp may be nil.
func GenerateReportMD(r *Report, cmp *Comparison, opts ReportOptions) string {
	var b strings.Builder
	b.WriteString("# graftlab benchmark report\n\n")
	if r.GeneratedNote != "" {
		fmt.Fprintf(&b, "Scale: **%s**.\n", r.GeneratedNote)
	}
	if h := r.Host; h != nil {
		fmt.Fprintf(&b, "Host: %s/%s, %d CPU(s), %s", h.GOOS, h.GOARCH, h.NumCPU, h.GoVersion)
		if h.Hostname != "" {
			fmt.Fprintf(&b, " (`%s`)", h.Hostname)
		}
		b.WriteString(".\n")
	}
	if c := r.Config; c != nil {
		fmt.Fprintf(&b,
			"Methodology: every cell ran **%d warmup** run(s) (discarded) followed by "+
				"**%d measurement** run(s); inputs are derived from fixed seed **%d**, so "+
				"reruns of this configuration measure identical work. Durations are "+
				"means over the measurement runs; CV is the coefficient of variation "+
				"(std/mean). Cells with CV > %.0f%% are flagged `NOISY` and should not "+
				"anchor fine-grained comparisons. VM engine: %q. Telemetry during the "+
				"run: %t.\n",
			c.EffectiveWarmup(), c.Runs, c.Seed, DefaultCVThreshold*100, string(c.VM), c.Telemetry)
	}
	b.WriteString("\nAll durations in source artifacts are nanoseconds (`results.json`, `results.csv`).\n")

	for _, spec := range Experiments() {
		group := CellsOf(r.Cells, spec.Name)
		if len(group) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n## %s\n\n", spec.Title)
		b.WriteString("| row | metric | value | CV | n | p50 | p95 | p99 | stability |\n")
		b.WriteString("|---|---|---:|---:|---:|---:|---:|---:|---|\n")
		for _, c := range group {
			stab := "ok"
			if !c.Stable() {
				stab = "NOISY"
			}
			p := func(v float64) string {
				if v == 0 {
					return "-"
				}
				return stats.FormatDuration(time.Duration(v))
			}
			row := c.Row
			if row == "" {
				row = "-"
			}
			n := "-"
			if c.N > 0 {
				n = fmt.Sprintf("%d", c.N)
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %.1f%% | %s | %s | %s | %s | %s |\n",
				row, c.Metric, fmtCellValue(c), c.CV*100, n, p(c.P50), p(c.P95), p(c.P99), stab)
		}
	}

	if cmp != nil {
		b.WriteString("\n## Regression gate\n\n")
		if opts.BaselinePath != "" {
			fmt.Fprintf(&b, "Baseline: `%s`. ", opts.BaselinePath)
		}
		eff := opts.EffectThreshold
		if eff <= 0 {
			eff = stats.EffectLarge
		}
		fmt.Fprintf(&b,
			"A cell regresses only when it moved in the bad direction by more than "+
				"%.0f%% AND the move is statistically significant (|Cohen's d| >= %.2f). "+
				"Moves inside a cell's own variance read `noise`, not `regression`.\n\n",
			opts.Tolerance*100, eff)
		b.WriteString("| cell | metric | baseline | current | ratio | d | verdict |\n")
		b.WriteString("|---|---|---:|---:|---:|---:|---|\n")
		for _, cell := range cmp.Cells {
			fmtV := func(v float64) string {
				if strings.HasSuffix(cell.Metric, "_ns") {
					return stats.FormatDuration(time.Duration(v))
				}
				return fmt.Sprintf("%.4g", v)
			}
			verdict := cell.Verdict
			if verdict == VerdictRegression {
				verdict = "**regression**"
			}
			fmt.Fprintf(&b, "| %s %s | %s | %s | %s | x%.2f | %s | %s |\n",
				cell.Experiment, cell.Row, cell.Metric,
				fmtV(cell.Baseline), fmtV(cell.Current), cell.Ratio,
				formatD(cell.EffectSize), verdict)
		}
		regs := cmp.Regressions()
		fmt.Fprintf(&b, "\n%d of %d gated metrics regressed.\n", len(regs), cmp.Compared())
		if sum := cmp.SkipSummary(); sum != "" {
			b.WriteString("\n### Not fully checked\n\n```\n")
			b.WriteString(sum)
			b.WriteString("\n```\n")
		} else {
			b.WriteString("\nNothing was skipped: every experiment and row in both reports was gated.\n")
		}
	}
	return b.String()
}
