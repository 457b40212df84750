package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"graftlab/internal/bench"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// microConfig keeps CLI tests fast while exercising every experiment path.
func microConfig() bench.Config {
	cfg := bench.Quick()
	cfg.Runs = 2
	cfg.EvictIters = 200
	cfg.MD5Bytes = 8 << 10
	cfg.MD5ScriptBytes = 1 << 10
	cfg.LDWrites = 1024
	cfg.LDScriptWrites = 64
	cfg.SignalIters = 10
	cfg.FaultPages = 64
	cfg.DiskWriteBytes = 128 << 10
	return cfg
}

func TestUnknownExperimentRejected(t *testing.T) {
	if _, err := run(microConfig(), "table99", "", "", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// hostShaped are the experiments whose table shape depends on the host:
// scale has one column per worker count, and GOMAXPROCS above 4 adds one.
var hostShaped = map[string]bool{"scale": true}

// TestIndividualExperiments runs every experiment but table1 (whose
// signal child this test binary cannot serve) at micro scale. Each must
// lay out its table exactly as testdata/tables.golden records it, with
// numbers masked (tableShape), and must write its cells to results.csv.
func TestIndividualExperiments(t *testing.T) {
	golden := readTablesGolden(t)
	cfg := microConfig()
	for _, spec := range bench.Experiments() {
		if spec.Name == "table1" {
			continue
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			report, err := run(cfg, spec.Name, "", "", true)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			cells := bench.CellsOf(report.Cells, spec.Name)
			if !hostShaped[spec.Name] {
				want, ok := golden[spec.Name]
				if !ok {
					t.Fatalf("tables.golden has no section %q", spec.Name)
				}
				if got := tableShape(spec.Render(cells)); got != want {
					t.Errorf("table shape differs from tables.golden:\n got:\n%s\n want:\n%s", got, want)
				}
			}
			dir := t.TempDir()
			if err := writeReportArtifacts(dir, report, nil, bench.ReportOptions{}); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(filepath.Join(dir, "results.csv"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			lines, err := csv.NewReader(f).ReadAll()
			if err != nil {
				t.Fatalf("results.csv: %v", err)
			}
			n := 0
			for _, l := range lines[1:] {
				if l[0] == spec.Name {
					n++
				}
			}
			if n == 0 || n != len(cells) {
				t.Fatalf("results.csv holds %d %s lines, want one per cell (%d)", n, spec.Name, len(cells))
			}
		})
	}
}

// tableShape renders t one line per title, header, row and caption
// line, with every number, duration, n/a and # bar masked, so two runs
// of an experiment compare equal exactly when their tables have the same
// titles, headers, row labels and captions.
func tableShape(t *stats.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "title: %s\n", maskCell(t.Title))
	line := func(kind string, cells []string) {
		m := make([]string, len(cells))
		for i, c := range cells {
			m[i] = maskCell(c)
		}
		fmt.Fprintf(&b, "%s: %s\n", kind, strings.Join(m, " | "))
	}
	line("header", t.Header)
	for _, r := range t.Rows {
		line("row", r)
	}
	for _, l := range strings.Split(t.Caption, "\n") {
		fmt.Fprintf(&b, "caption: %s\n", maskCell(l))
	}
	return b.String()
}

var numberRE = regexp.MustCompile(`>?-?\d+(\.\d+)?(e[-+]?\d+)?(ns|µs|ms|s)?|n/a|N\.A\.`)

// maskCell masks one table cell: a # bar (or an empty cell) reads "#",
// and each number, duration, n/a or N.A. in it reads "N".
func maskCell(s string) string {
	if strings.Trim(s, "#") == "" {
		return "#"
	}
	return numberRE.ReplaceAllString(s, "N")
}

// readTablesGolden splits testdata/tables.golden into its "== name"
// sections.
func readTablesGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
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

func TestFigure1WritesCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "fig1.csv")
	js := filepath.Join(dir, "results.json")
	if _, err := run(microConfig(), "figure1", csvPath, js, true); err != nil {
		t.Fatal(err)
	}
	series, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(series), "upcall_us,break_even,measured,safe_level,sfi_level\n") {
		t.Fatalf("figure 1 CSV header wrong:\n%s", series)
	}
	data, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]any
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	cells, _ := report["cells"].([]any)
	if len(cells) == 0 || cells[0].(map[string]any)["experiment"] != "figure1" {
		t.Fatalf("report lacks figure1 cells: %v", report)
	}
	if report["note"] != "quick-scale" {
		t.Fatalf("note = %v", report["note"])
	}
	host, ok := report["host"].(map[string]any)
	if !ok {
		t.Fatalf("report lacks host info: %v", report)
	}
	if host["goarch"] == "" || host["go_version"] == "" {
		t.Fatalf("incomplete host info: %v", host)
	}
	if _, ok := report["config"]; !ok {
		t.Fatalf("report lacks config: %v", report)
	}
}

func TestDefaultJSONPath(t *testing.T) {
	if got := defaultJSONPath("table5"); got != "BENCH_table5.json" {
		t.Fatalf("defaultJSONPath = %q", got)
	}
}

// TestCheckAgainst pins the CLI end of the regression gate: a matching
// baseline passes, a wildly faster baseline fails, a disjoint or missing
// one errors.
func TestCheckAgainst(t *testing.T) {
	cfg := microConfig()
	report, err := run(cfg, "table5", "", "", true)
	if err != nil {
		t.Fatal(err)
	}
	writeBaseline := func(r *bench.Report) string {
		data, err := r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cmp, err := checkAgainst(report, writeBaseline(report), 0.30, 0)
	if err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
	if cmp == nil || cmp.Compared() == 0 {
		t.Fatal("self-comparison gated no cells")
	}
	fast := &bench.Report{Cells: append([]bench.Cell(nil), report.Cells...)}
	for i, c := range fast.Cells {
		if c.Metric == "total_ns" {
			fast.Cells[i].Value /= 100
		}
	}
	if _, err := checkAgainst(report, writeBaseline(fast), 0.30, 0); err == nil {
		t.Fatal("100x regression passed the gate")
	}
	// A baseline sharing nothing with this run must error, and the error
	// must carry the explicit skip summary rather than failing silently.
	_, err = checkAgainst(report, writeBaseline(&bench.Report{}), 0.30, 0)
	if err == nil {
		t.Fatal("baseline with no comparable metrics accepted")
	}
	if !strings.Contains(err.Error(), "skipped") {
		t.Fatalf("disjoint-baseline error lacks the skip summary: %v", err)
	}
	if _, err := checkAgainst(report, filepath.Join(t.TempDir(), "missing.json"), 0.30, 0); err == nil {
		t.Fatal("missing baseline file accepted")
	}
}

// TestCheckAgainstNoiseTolerated pins the effect-size half of the gate at
// the CLI level: a bad-direction move past the tolerance does NOT fail
// when it sits inside the cells' own variance.
func TestCheckAgainstNoiseTolerated(t *testing.T) {
	noisy := func(total float64) *bench.Report {
		return &bench.Report{Cells: []bench.Cell{
			{Experiment: "table5", Metric: "bytes", Unit: "bytes", Value: 1 << 20},
			{Experiment: "table5", Row: "compiled-unsafe", Metric: "total_ns", Unit: "ns", Value: total, CV: 0.60, N: 5},
		}}
	}
	base, cur := noisy(100_000_000), noisy(140_000_000)
	data, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cmp, err := checkAgainst(cur, path, 0.30, 0.8)
	if err != nil {
		t.Fatalf("in-variance move failed the gate: %v", err)
	}
	if got := cmp.Cells[0].Verdict; got != bench.VerdictNoise {
		t.Fatalf("verdict = %q, want noise", got)
	}
}

// TestReportArtifacts pins -report-dir: all three suite artifacts land in
// the directory and are well-formed.
func TestReportArtifacts(t *testing.T) {
	report, err := run(microConfig(), "table5", "", "", true)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "bench-out")
	if err := writeReportArtifacts(dir, report, nil, bench.ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	jdata, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decoded bench.Report
	if err := json.Unmarshal(jdata, &decoded); err != nil {
		t.Fatalf("results.json invalid: %v", err)
	}
	if len(bench.CellsOf(decoded.Cells, "table5")) == 0 {
		t.Fatalf("results.json lacks table5 cells: %s", jdata)
	}
	cdata, err := os.ReadFile(filepath.Join(dir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(cdata), "experiment,row,metric,unit,value,n,cv,") {
		t.Fatalf("results.csv header wrong:\n%s", cdata)
	}
	mdata, err := os.ReadFile(filepath.Join(dir, "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	md := string(mdata)
	for _, want := range []string{"# graftlab benchmark report", "warmup", "Table 5"} {
		if !strings.Contains(md, want) {
			t.Fatalf("REPORT.md lacks %q:\n%s", want, md)
		}
	}
}

// TestCheckAgainstRefusesUnknownFields: a baseline in the per-experiment
// format that preceded cell lists, or with a misspelled key, is refused
// with an error naming the field, not read as an empty report that
// "shares no gated metrics".
func TestCheckAgainstRefusesUnknownFields(t *testing.T) {
	report := &bench.Report{Cells: []bench.Cell{
		{Experiment: "table5", Row: "compiled-unsafe", Metric: "total_ns", Unit: "ns", Value: 1e6},
	}}
	for field, body := range map[string]string{
		"table5": `{"note": "quick-scale", "table5": {"Bytes": 262144, "Rows": [{"Tech": "compiled-unsafe", "Total": 1000000}]}}`,
		"cels":   `{"cels": []}`,
		"vlaue":  `{"cells": [{"experiment": "table5", "row": "compiled-unsafe", "metric": "total_ns", "unit": "ns", "vlaue": 1}]}`,
	} {
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := checkAgainst(report, path, 0.30, 0)
		if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Errorf("baseline with field %q: err = %v, want one naming the field", field, err)
		}
	}
}

// TestCommittedBaselinesGateThemselves: every committed BENCH_*.json
// decodes through -check-against's strict path and gates against itself
// with every verdict ok, over the cell counts the gate has always
// compared for it.
func TestCommittedBaselinesGateThemselves(t *testing.T) {
	want := map[string]int{"baseline": 81, "table5": 8, "pktfilter-batch": 64, "scale": 45}
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Fatalf("committed baselines %v, want %d", paths, len(want))
	}
	for _, path := range paths {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var report bench.Report
		if err := json.Unmarshal(data, &report); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		cmp, err := checkAgainst(&report, path, 0.45, 0.8)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if cmp.Compared() != want[name] {
			t.Errorf("%s gated %d cells, want %d", path, cmp.Compared(), want[name])
		}
		for _, c := range cmp.Cells {
			if c.Verdict != bench.VerdictOK {
				t.Errorf("%s: %s", path, c)
			}
		}
		if sum := cmp.SkipSummary(); sum != "" {
			t.Errorf("%s against itself skipped:\n%s", path, sum)
		}
	}
}

// TestVMBaselineSelectable pins that the -vm=baseline plumbing reaches the
// vm rows: a baseline-config run must still produce correct results.
func TestVMBaselineSelectable(t *testing.T) {
	cfg := microConfig()
	mode, err := tech.ParseVMMode("baseline")
	if err != nil {
		t.Fatal(err)
	}
	cfg.VM = mode
	if _, err := run(cfg, "table5", "", "", true); err != nil {
		t.Fatal(err)
	}
	if _, err := tech.ParseVMMode("nonsense"); err == nil {
		t.Fatal("bad -vm value accepted")
	}
}

// TestObservabilityExportFlags drives the full -profile-out / -spans-out
// pipeline at micro scale: enable every collector the CLI flags would
// enable, run one direct-dispatch experiment (profiler samples) and one
// kernel-mediated experiment (span roots), and require each dump to be
// well-formed — folded stacks with integer weights, and Chrome trace
// JSON with complete duration events that include the Logical Disk's
// writes.
func TestObservabilityExportFlags(t *testing.T) {
	dir := t.TempDir()
	if _, err := telemetry.EnableProfiler(256); err != nil {
		t.Fatal(err)
	}
	telemetry.EnableSpans(1 << 12)
	if err := telemetry.SetSpanSampleEvery(8); err != nil {
		t.Fatal(err)
	}
	telemetry.SetEnabled(true)
	t.Cleanup(func() {
		telemetry.SetEnabled(false)
		telemetry.DisableSpans()
		telemetry.DisableProfiler()
		_ = telemetry.SetSpanSampleEvery(64)
		telemetry.ResetMetrics()
	})

	cfg := microConfig()
	cfg.Telemetry = true
	// table2 exercises the metered engines (profiler hits); table6
	// routes writes through the Logical Disk (span roots).
	for _, exp := range []string{"table2", "table6"} {
		if _, err := run(cfg, exp, "", "", true); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}

	prof := filepath.Join(dir, "profile.folded")
	if err := dumpProfile(prof); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	folded := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(folded) == 0 || folded[0] == "" {
		t.Fatal("folded profile is empty")
	}
	for _, line := range folded {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.Count(fields[0], ";") != 2 {
			t.Fatalf("malformed folded line %q, want graft;tech;site weight", line)
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			t.Fatalf("folded weight in %q is not an integer: %v", line, err)
		}
	}

	spansPath := filepath.Join(dir, "spans.json")
	if err := dumpSpans(spansPath); err != nil {
		t.Fatal(err)
	}
	sdata, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(sdata, &chrome); err != nil {
		t.Fatalf("-spans-out is not valid Chrome trace JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("span export recorded no events from the LD run")
	}
	writes := 0
	for _, e := range chrome.TraceEvents {
		if e.Ph != "X" || e.Name == "" {
			t.Fatalf("malformed trace event %+v", e)
		}
		if e.Name == "ld:write" {
			writes++
		}
	}
	if writes == 0 {
		t.Error("span export carries no ld:write span after the LD run")
	}
}
