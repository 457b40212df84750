package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The gate-equivalence fixture pins CompareReports' verdicts on the
// committed gate baselines. testdata/gate holds frozen copies of
// BENCH_baseline.json, BENCH_table5.json and BENCH_scale.json, and
// parent.golden the comparisons the per-experiment gate (the one before
// the cell walk) made of the inputs below, with `make bench-check`'s
// settings. The cell walk must give the same cells, skips and notes.

// gateFixtureOptions are bench-check's gate settings.
var gateFixtureOptions = CompareOptions{Tolerance: 0.45, EffectThreshold: 0.8}

// gateInput is one (baseline, current) pair of the fixture, with the
// gated and regressed cell counts it must produce.
type gateInput struct {
	name             string
	base, cur        *Report
	gated, regressed int
}

// loadGateReport decodes a fresh copy of a frozen report.
func loadGateReport(t *testing.T, name string) *Report {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "gate", name))
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return &r
}

// slowGated multiplies every gated time of the baseline's experiments
// by f, as a uniformly slower run would read.
func slowGated(r *Report, f float64) *Report {
	mul := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	for i := range r.MD5.Rows {
		r.MD5.Rows[i].Total = mul(r.MD5.Rows[i].Total)
	}
	for _, row := range r.PFBatch.Rows {
		for i := range row.Cells {
			row.Cells[i].PerPacket = mul(row.Cells[i].PerPacket)
		}
	}
	for _, row := range r.Swap.Rows {
		for i := range row.Cells {
			row.Cells[i].PerOp = mul(row.Cells[i].PerOp)
		}
	}
	return r
}

// everyExperiment adds one small result for each experiment the
// baseline lacks: the report a full `graftbench -quick` run writes.
func everyExperiment(r *Report) *Report {
	r.Signal = &SignalResult{PerSignal: 3 * time.Microsecond, Crossing: time.Microsecond}
	r.Evict = &EvictResult{HotListLen: 64, Rows: []EvictRow{
		{Tech: "compiled-unsafe", Per: 60 * time.Nanosecond, RelStd: 0.05, N: 5, Normalized: 1},
	}}
	r.Fault = &FaultResult{Measured: time.Microsecond, Simulated: 15 * time.Millisecond, Pages: 512}
	r.Disk = &DiskResult{MeasuredBW: 1 << 30, ModelBW: 4 << 20}
	r.LD = &LDResult{Writes: 16384, Rows: []LDRow{
		{Tech: "compiled-unsafe", Total: 2 * time.Millisecond, RelStd: 0.03, N: 5, Normalized: 1},
	}}
	r.Figure1 = &Figure1Result{FaultTime: 15 * time.Millisecond, NativeTime: 60 * time.Nanosecond}
	r.PacketFilter = &PFResult{Packets: 200, Rows: []PFRow{
		{Tech: "compiled-unsafe", PerPacket: 40, RelStd: 0.04, N: 5, Normalized: 1, PacketsPerSec: 2.5e7},
	}}
	r.Ablation = &AblationResult{EvictSafe: 70 * time.Nanosecond, EvictSafeNil: 75 * time.Nanosecond}
	return r
}

func gateInputs(t *testing.T) []gateInput {
	load := func(name string) *Report { return loadGateReport(t, name) }
	halfT5 := load("table5.json")
	halfT5.MD5.Bytes /= 2
	for i := range halfT5.MD5.Rows {
		halfT5.MD5.Rows[i].Total /= 2
	}
	slowService := load("scale.json")
	slowService.Scale.ServiceTime *= 2
	return []gateInput{
		{"baseline-self", load("baseline.json"), load("baseline.json"), 81, 0},
		{"baseline-x1.5", load("baseline.json"), slowGated(load("baseline.json"), 1.5), 81, 8},
		{"baseline-x3", load("baseline.json"), slowGated(load("baseline.json"), 3), 81, 81},
		{"table5-half-size", load("table5.json"), halfT5, 8, 0},
		{"scale-self", load("scale.json"), load("scale.json"), 45, 0},
		{"scale-service-time", load("scale.json"), slowService, 0, 0},
		{"every-experiment", load("baseline.json"), everyExperiment(load("baseline.json")), 81, 0},
	}
}

// renderComparison prints every field of every cell, skip and note,
// floats in their shortest exact form.
func renderComparison(c *Comparison) string {
	var b strings.Builder
	for _, cell := range c.Cells {
		fmt.Fprintf(&b, "cell %s|%s|%s|%v|%v|%v|%v|%v|%v|%t|%s\n",
			cell.Experiment, cell.Row, cell.Metric, cell.Baseline, cell.Current, cell.Ratio,
			cell.BaselineCV, cell.CurrentCV, cell.EffectSize, cell.HigherBetter, cell.Verdict)
	}
	for _, s := range c.Skips {
		fmt.Fprintf(&b, "skip %s|%s|%s\n", s.Experiment, s.Row, s.Reason)
	}
	for _, n := range c.Notes {
		fmt.Fprintf(&b, "note %s|%s|%s\n", n.Experiment, n.Row, n.Reason)
	}
	return b.String()
}

// readGateGolden splits parent.golden into its "== name" sections.
func readGateGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "gate", "parent.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, sec := range strings.Split(string(data), "== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		out[name] = body
	}
	return out
}

// TestGateEquivalence: on every fixture input the gate gives the cells,
// skips and notes recorded in parent.golden, line for line.
func TestGateEquivalence(t *testing.T) {
	golden := readGateGolden(t)
	for _, in := range gateInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			want, ok := golden[in.name]
			if !ok {
				t.Fatalf("parent.golden has no section %q", in.name)
			}
			cmp := CompareReports(in.base, in.cur, gateFixtureOptions)
			if got := renderComparison(cmp); got != want {
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := 0; i < len(gl) || i < len(wl); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
					}
				}
			}
			if cmp.Compared() != in.gated || len(cmp.Regressions()) != in.regressed {
				t.Errorf("gated %d, regressed %d; want %d and %d",
					cmp.Compared(), len(cmp.Regressions()), in.gated, in.regressed)
			}
		})
	}
}
