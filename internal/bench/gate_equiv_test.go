package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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
// settings, back when reports held one typed result per experiment. The
// gate over cell-list reports must give the same cells, skips and
// notes.

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
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return &r
}

// scaleCells multiplies the value of every cell of experiment exp and
// metric by f, truncating to whole units as a report of integer
// nanoseconds or counts reads.
func scaleCells(r *Report, exp, metric string, f float64) {
	for i, c := range r.Cells {
		if c.Experiment == exp && c.Metric == metric {
			r.Cells[i].Value = math.Trunc(c.Value * f)
		}
	}
}

// slowGated multiplies every gated time of the baseline's experiments
// by f, as a uniformly slower run would read.
func slowGated(r *Report, f float64) *Report {
	scaleCells(r, "table5", "total_ns", f)
	scaleCells(r, "pktfilter-batch", "per_packet_ns", f)
	scaleCells(r, "swap-under-load", "per_op_ns", f)
	return r
}

// everyExperiment adds a few cells for each experiment the baseline
// lacks: the report a full `graftbench -quick` run writes.
func everyExperiment(r *Report) *Report {
	ns := func(exp, row, metric string, d time.Duration, cv float64, n int) Cell {
		return Cell{Experiment: exp, Row: row, Metric: metric, Unit: "ns", Value: float64(d), CV: cv, N: n}
	}
	r.Cells = append(r.Cells,
		ns("table1", "", "per_signal_ns", 3*time.Microsecond, 0, 0),
		ns("table1", "", "crossing_ns", time.Microsecond, 0, 0),
		Cell{Experiment: "table2", Metric: "hot_list_len", Unit: "count", Value: 64},
		ns("table2", "compiled-unsafe", "per_eviction_ns", 60*time.Nanosecond, 0.05, 5),
		Cell{Experiment: "table2", Row: "compiled-unsafe", Metric: "normalized", Unit: "ratio", Value: 1, CV: 0.05, N: 5},
		ns("table3", "", "measured_fault_ns", time.Microsecond, 0, 0),
		ns("table3", "", "simulated_fault_ns", 15*time.Millisecond, 0, 0),
		Cell{Experiment: "table4", Metric: "measured_bw", Unit: "bytes/s", Value: 1 << 30},
		Cell{Experiment: "table4", Metric: "model_bw", Unit: "bytes/s", Value: 4 << 20},
		Cell{Experiment: "table6", Metric: "writes", Unit: "count", Value: 16384},
		ns("table6", "compiled-unsafe", "total_ns", 2*time.Millisecond, 0.03, 5),
		ns("figure1", "", "fault_ns", 15*time.Millisecond, 0, 0),
		ns("figure1", "", "native_ns", 60*time.Nanosecond, 0, 0),
		ns("pktfilter", "compiled-unsafe", "per_packet_ns", 40, 0.04, 5),
		Cell{Experiment: "pktfilter", Row: "compiled-unsafe", Metric: "pkts_per_sec", Unit: "ops/s", Value: 2.5e7, CV: 0.04, N: 5},
		ns("ablation", "eviction, checked (trap NIL)", "best_ns", 70*time.Nanosecond, 0, 0),
		ns("ablation", "eviction, checked + explicit NIL", "best_ns", 75*time.Nanosecond, 0, 0),
	)
	return r
}

func gateInputs(t *testing.T) []gateInput {
	load := func(name string) *Report { return loadGateReport(t, name) }
	halfT5 := load("table5.json")
	scaleCells(halfT5, "table5", "bytes", 0.5)
	scaleCells(halfT5, "table5", "total_ns", 0.5)
	slowService := load("scale.json")
	scaleCells(slowService, "scale", "service_time_ns", 2)
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
