package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// tolOnly mirrors the pre-effect-size gate: tolerance with the default
// (large) effect threshold. Helpers below build variance-free rows, whose
// shifts are infinitely significant, so these tests gate on ratio alone.
var tolOnly = CompareOptions{Tolerance: 0.30}

// md5Report builds a minimal Table 5 report for comparator tests: the
// input-size cell and one row's total and normalized cells.
func md5Report(bytes int, total time.Duration, normalized float64) *Report {
	return &Report{Cells: []Cell{
		{Experiment: "table5", Metric: "bytes", Unit: "bytes", Value: float64(bytes)},
		{Experiment: "table5", Row: "compiled-unsafe", Metric: "total_ns", Unit: "ns", Value: float64(total)},
		{Experiment: "table5", Row: "compiled-unsafe", Metric: "normalized", Unit: "ratio", Value: normalized},
	}}
}

// md5NoisyReport is md5Report with per-row variance attached.
func md5NoisyReport(total time.Duration, cv float64, n int) *Report {
	r := md5Report(1<<20, total, 1)
	r.Cells[1].CV, r.Cells[1].N = cv, n
	return r
}

// scaleCell is one worker count's throughput cell of a scale report.
func scaleCell(workers int, thr float64) Cell {
	return Cell{Experiment: "scale", Row: fmt.Sprintf("md5/compiled-unsafe w=%d", workers), Metric: "ops_per_sec", Unit: "ops/s", Value: thr}
}

func scaleReport(service time.Duration, thr float64) *Report {
	return &Report{Cells: []Cell{
		{Experiment: "scale", Metric: "service_time_ns", Unit: "ns", Value: float64(service)},
		scaleCell(4, thr),
	}}
}

func TestCompareIdenticalReportsClean(t *testing.T) {
	base := md5Report(1<<20, 100*time.Millisecond, 1)
	cmp := CompareReports(base, md5Report(1<<20, 100*time.Millisecond, 1), tolOnly)
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("identical reports regressed: %v", regs)
	}
	if cmp.Compared() == 0 {
		t.Fatal("nothing compared")
	}
	if s := cmp.SkipSummary(); s != "" {
		t.Fatalf("identical reports produced a skip summary: %q", s)
	}
}

func TestCompareFlagsSlowdown(t *testing.T) {
	base := md5Report(1<<20, 100*time.Millisecond, 1)
	regs := CompareReports(base, md5Report(1<<20, 200*time.Millisecond, 2), tolOnly).Regressions()
	if len(regs) != 1 {
		t.Fatalf("2x slowdown not flagged: %v", regs)
	}
	if regs[0].Experiment != "table5" || regs[0].Metric != "total_ns" {
		t.Fatalf("wrong regression identity: %+v", regs[0])
	}
	if regs[0].Ratio < 1.9 || regs[0].Ratio > 2.1 {
		t.Fatalf("ratio = %v, want ~2", regs[0].Ratio)
	}
	// Variance-free shift: infinitely significant effect.
	if !math.IsInf(regs[0].EffectSize, 1) {
		t.Fatalf("effect size = %v, want +Inf", regs[0].EffectSize)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	base := md5Report(1<<20, 100*time.Millisecond, 1)
	cmp := CompareReports(base, md5Report(1<<20, 10*time.Millisecond, 1), tolOnly)
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
	if v := cmp.Cells[0].Verdict; v != VerdictImproved {
		t.Fatalf("10x speedup verdict = %q, want %q", v, VerdictImproved)
	}
}

func TestCompareToleranceBoundary(t *testing.T) {
	base := md5Report(1<<20, 100*time.Millisecond, 1)
	if regs := CompareReports(base, md5Report(1<<20, 129*time.Millisecond, 1), tolOnly).Regressions(); len(regs) != 0 {
		t.Fatalf("move inside tolerance flagged: %v", regs)
	}
	if regs := CompareReports(base, md5Report(1<<20, 131*time.Millisecond, 1), tolOnly).Regressions(); len(regs) != 1 {
		t.Fatalf("move outside tolerance not flagged: %v", regs)
	}
}

// The core of the effect-size gate: the same 1.4x slowdown regresses a
// quiet cell but reads "noise" on a cell whose own variance swallows it.
// A noisy cell can no longer fail (or pass) by luck.
func TestCompareEffectSizeGating(t *testing.T) {
	// Quiet cell: CV 2% at n=5. d = 0.4/~0.024 >> 0.8 -> regression.
	quietBase := md5NoisyReport(100*time.Millisecond, 0.02, 5)
	quietCur := md5NoisyReport(140*time.Millisecond, 0.02, 5)
	cmp := CompareReports(quietBase, quietCur, tolOnly)
	if regs := cmp.Regressions(); len(regs) != 1 {
		t.Fatalf("quiet-cell 1.4x slowdown not flagged: %+v", cmp.Cells)
	}
	// Noisy cell: CV 50% at n=5 -> pooled std ~61ms, d ~0.66 < 0.8.
	noisyBase := md5NoisyReport(100*time.Millisecond, 0.50, 5)
	noisyCur := md5NoisyReport(140*time.Millisecond, 0.50, 5)
	cmp = CompareReports(noisyBase, noisyCur, tolOnly)
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("in-noise move failed the gate: %v", regs)
	}
	if v := cmp.Cells[0].Verdict; v != VerdictNoise {
		t.Fatalf("noisy cell verdict = %q, want %q", v, VerdictNoise)
	}
	// The comparison still reports the statistics it used.
	cell := cmp.Cells[0]
	if cell.BaselineCV != 0.50 || cell.CurrentCV != 0.50 {
		t.Fatalf("cell CVs = %v/%v", cell.BaselineCV, cell.CurrentCV)
	}
	if cell.EffectSize < 0.5 || cell.EffectSize > 0.8 {
		t.Fatalf("effect size = %v, want ~0.66", cell.EffectSize)
	}
	// A custom (stricter) threshold flips the noisy verdict.
	strict := CompareOptions{Tolerance: 0.30, EffectThreshold: 0.5}
	if regs := CompareReports(noisyBase, noisyCur, strict).Regressions(); len(regs) != 1 {
		t.Fatal("custom effect threshold ignored")
	}
}

// Different workload sizes must fall back to the dimensionless
// normalized column — and say so in the notes, so the gate never
// degrades silently.
func TestCompareNormalizedFallback(t *testing.T) {
	base := md5Report(1<<20, 400*time.Millisecond, 2)
	cur := md5Report(256<<10, 100*time.Millisecond, 2) // raw 4x apart, same normalized
	cmp := CompareReports(base, cur, tolOnly)
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("size-mismatched raw durations compared: %v", regs)
	}
	if len(cmp.Notes) != 1 || !strings.Contains(cmp.Notes[0].Reason, "normalized") {
		t.Fatalf("size fallback not noted: %+v", cmp.Notes)
	}
	if !strings.Contains(cmp.SkipSummary(), "input sizes differ") {
		t.Fatalf("skip summary lacks the fallback note:\n%s", cmp.SkipSummary())
	}
	cur = md5Report(256<<10, 100*time.Millisecond, 4)
	regs := CompareReports(base, cur, tolOnly).Regressions()
	if len(regs) != 1 || regs[0].Metric != "normalized" {
		t.Fatalf("normalized regression not flagged: %v", regs)
	}
}

// Throughput compares in the opposite direction: lower is worse.
func TestCompareThroughputDirection(t *testing.T) {
	base := scaleReport(200*time.Microsecond, 1000)
	if regs := CompareReports(base, scaleReport(200*time.Microsecond, 500), tolOnly).Regressions(); len(regs) != 1 {
		t.Fatalf("throughput collapse not flagged: %v", regs)
	}
	if regs := CompareReports(base, scaleReport(200*time.Microsecond, 2000), tolOnly).Regressions(); len(regs) != 0 {
		t.Fatalf("throughput gain flagged: %v", regs)
	}
}

// A service-time mismatch invalidates the closed-loop model: the whole
// scale experiment is skipped, and the skip is named, not silent.
func TestCompareScaleServiceTimeMismatchSkips(t *testing.T) {
	base := scaleReport(200*time.Microsecond, 1000)
	cmp := CompareReports(base, scaleReport(100*time.Microsecond, 10), tolOnly)
	if cmp.Compared() != 0 {
		t.Fatal("cells with mismatched service time compared")
	}
	if len(cmp.Skips) != 1 || cmp.Skips[0].Experiment != "scale" {
		t.Fatalf("mismatch not recorded as a skip: %+v", cmp.Skips)
	}
	if !strings.Contains(cmp.Skips[0].Reason, "service_time mismatch") {
		t.Fatalf("skip reason unhelpful: %q", cmp.Skips[0].Reason)
	}
	if !strings.Contains(cmp.SkipSummary(), "service_time mismatch") {
		t.Fatalf("summary lacks the skip:\n%s", cmp.SkipSummary())
	}
}

// A worker count present only in the current run is skipped by name.
func TestCompareScaleMissingCellSkips(t *testing.T) {
	base := scaleReport(200*time.Microsecond, 1000)
	cur := scaleReport(200*time.Microsecond, 1000)
	cur.Cells = append(cur.Cells, scaleCell(8, 1800))
	cmp := CompareReports(base, cur, tolOnly)
	if cmp.Compared() != 1 {
		t.Fatalf("compared %d, want 1", cmp.Compared())
	}
	if len(cmp.Skips) != 1 || !strings.Contains(cmp.Skips[0].Row, "w=8") {
		t.Fatalf("missing worker count not skipped by name: %+v", cmp.Skips)
	}
}

// A baseline archived before a technology existed must keep gating runs
// that include the new column: rows matched by name, additions recorded
// as skips rather than silently dropped.
func TestCompareToleratesAddedColumns(t *testing.T) {
	base := md5Report(1<<20, 100*time.Millisecond, 1)
	cur := md5Report(1<<20, 100*time.Millisecond, 1)
	cur.Cells = append(cur.Cells,
		Cell{Experiment: "table5", Row: "aot", Metric: "total_ns", Unit: "ns", Value: float64(900 * time.Millisecond)})
	cmp := CompareReports(base, cur, tolOnly)
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("added column flagged as regression: %v", regs)
	}
	if cmp.Compared() != 1 {
		t.Fatalf("compared %d metrics, want 1 (only the shared row)", cmp.Compared())
	}
	// The dropped row is visible in the skip summary.
	if len(cmp.Skips) != 1 || cmp.Skips[0].Row != "aot" {
		t.Fatalf("baseline-missing row not in skips: %+v", cmp.Skips)
	}
	if !strings.Contains(cmp.SkipSummary(), "row absent from baseline") {
		t.Fatalf("summary lacks the row skip:\n%s", cmp.SkipSummary())
	}
	// And the shared rows still gate: slow down the pre-existing column
	// next to the new one and the regression must surface.
	cur.Cells[1].Value = float64(500 * time.Millisecond)
	if regs := CompareReports(base, cur, tolOnly).Regressions(); len(regs) != 1 {
		t.Fatalf("shared-row regression masked by added column: %v", regs)
	}
}

// Disjoint reports compare nothing — but each one-sided experiment is
// named in the skips, so an accidentally empty gate is loud.
func TestCompareDisjointReports(t *testing.T) {
	base := &Report{Cells: []Cell{
		{Experiment: "table2", Row: "script", Metric: "per_eviction_ns", Unit: "ns", Value: float64(time.Millisecond)},
	}}
	cmp := CompareReports(base, md5Report(1<<20, time.Millisecond, 1), tolOnly)
	if cmp.Compared() != 0 || len(cmp.Regressions()) != 0 {
		t.Fatalf("disjoint reports compared: %d metrics, %v", cmp.Compared(), cmp.Regressions())
	}
	if len(cmp.Skips) != 2 {
		t.Fatalf("want 2 experiment-level skips, got %+v", cmp.Skips)
	}
	sum := cmp.SkipSummary()
	for _, want := range []string{"table2: experiment in baseline but not in current run",
		"table5: experiment in current run but not in baseline"} {
		if !strings.Contains(sum, want) {
			t.Errorf("skip summary lacks %q:\n%s", want, sum)
		}
	}
}

// Packet-filter rows gate on the intensive per-packet time.
func TestComparePacketFilterRows(t *testing.T) {
	mk := func(per float64) *Report {
		return &Report{Cells: []Cell{
			{Experiment: "pktfilter", Row: "compiled-unsafe", Metric: "per_packet_ns", Unit: "ns", Value: per},
		}}
	}
	if regs := CompareReports(mk(100), mk(250), tolOnly).Regressions(); len(regs) != 1 {
		t.Fatalf("pktfilter slowdown not flagged: %v", regs)
	}
	if regs := CompareReports(mk(100), mk(110), tolOnly).Regressions(); len(regs) != 0 {
		t.Fatalf("pktfilter jitter flagged: %v", regs)
	}
}

// A row the baseline has and the current run lacks is named in the
// skips, like a row only the current run has, so a technology dropping
// out of a run cannot shrink the gate silently.
func TestCompareNamesRowsMissingFromCurrent(t *testing.T) {
	base, cur := loadGateReport(t, "baseline.json"), loadGateReport(t, "baseline.json")
	dropped := rowsWith(CellsOf(cur.Cells, "table5"), "total_ns")[1]
	kept := cur.Cells[:0]
	for _, c := range cur.Cells {
		if c.Experiment != "table5" || c.Row != dropped {
			kept = append(kept, c)
		}
	}
	cur.Cells = kept
	cmp := CompareReports(base, cur, gateFixtureOptions)
	if cmp.Compared() != 80 || len(cmp.Regressions()) != 0 {
		t.Fatalf("gated %d cells, %d regressed; want 80 and 0", cmp.Compared(), len(cmp.Regressions()))
	}
	want := Skip{Experiment: "table5", Row: dropped, Reason: "row absent from current run"}
	if len(cmp.Skips) != 1 || cmp.Skips[0] != want {
		t.Fatalf("skips = %+v, want [%+v]", cmp.Skips, want)
	}
	if !strings.Contains(cmp.SkipSummary(), want.String()) {
		t.Fatalf("summary lacks %q:\n%s", want, cmp.SkipSummary())
	}
}
