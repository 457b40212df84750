package bench

import (
	"encoding/csv"
	"fmt"
	"strings"
	"testing"
	"time"
)

// flatReport builds a report of scalar, row and concurrent-experiment
// cells for exporter tests.
func flatReport() *Report {
	return &Report{
		GeneratedNote: "quick-scale",
		Host:          &HostInfo{GOOS: "linux", GOARCH: "amd64", NumCPU: 4, GoVersion: "go1.22"},
		Config:        func() *Config { c := Quick(); return &c }(),
		Cells: []Cell{
			{Experiment: "table1", Metric: "crossing_ns", Unit: "ns", Value: float64(2 * time.Microsecond)},
			{Experiment: "table5", Metric: "bytes", Unit: "bytes", Value: 1 << 20},
			{Experiment: "table5", Row: "compiled-unsafe", Metric: "total_ns", Unit: "ns",
				Value: float64(100 * time.Millisecond), CV: 0.02, N: 5,
				P50: float64(99 * time.Millisecond), P95: float64(104 * time.Millisecond), P99: float64(105 * time.Millisecond)},
			{Experiment: "table5", Row: "script", Metric: "total_ns", Unit: "ns", Value: float64(40 * time.Second), CV: 0.40, N: 3},
			{Experiment: "scale", Row: "md5/compiled-unsafe w=4", Metric: "ops_per_sec", Unit: "ops/s", Value: 3500},
		},
	}
}

func TestCellsOf(t *testing.T) {
	r := flatReport()
	t5 := CellsOf(r.Cells, "table5")
	if len(t5) != 3 || t5[0].Metric != "bytes" || t5[2].Row != "script" {
		t.Fatalf("table5 cells out of order or incomplete: %+v", t5)
	}
	x := indexCells(t5)
	quiet, _ := x.cell("compiled-unsafe", "total_ns")
	if !quiet.Stable() {
		t.Errorf("CV 2%% cell flagged unstable: %+v", quiet)
	}
	if noisy, _ := x.cell("script", "total_ns"); noisy.Stable() {
		t.Errorf("CV 40%% cell flagged stable: %+v", noisy)
	}
	if got := CellsOf(r.Cells, "table2"); len(got) != 0 {
		t.Errorf("cells of an experiment the report lacks: %+v", got)
	}
}

func TestCSVShape(t *testing.T) {
	r := flatReport()
	out := CSV(r.Cells)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "experiment,row,metric,unit,value,n,cv,p50_ns,p95_ns,p99_ns,stable" {
		t.Fatalf("csv header: %q", lines[0])
	}
	if want := 1 + len(r.Cells); len(lines) != want {
		t.Fatalf("csv has %d lines, want %d:\n%s", len(lines), want, out)
	}
	// A line that needs no quoting is the plain comma join of its
	// fields, in the formats results.csv has always used.
	for i, c := range r.Cells {
		want := fmt.Sprintf("%s,%s,%s,%s,%g,%d,%.6g,%g,%g,%g,%t",
			c.Experiment, c.Row, c.Metric, c.Unit, c.Value, c.N, c.CV, c.P50, c.P95, c.P99, c.Stable())
		if lines[i+1] != want {
			t.Errorf("line %d = %q, want %q", i+1, lines[i+1], want)
		}
	}
	if !strings.Contains(out, "table5,script,total_ns,ns,") {
		t.Errorf("csv lacks script row:\n%s", out)
	}
	if !strings.Contains(out, ",false\n") {
		t.Error("csv lacks an unstable flag for the noisy cell")
	}

	// Ablation labels hold commas (and a label may hold a quote): each
	// still reads back as one field.
	label := `MD5 256KB, SFI "write/jump"`
	back, err := csv.NewReader(strings.NewReader(CSV([]Cell{
		{Experiment: "ablation", Row: label, Metric: "best_ns", Unit: "ns", Value: 1},
	}))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || len(back[1]) != 11 || back[1][1] != label {
		t.Fatalf("quoted label did not read back as one field: %q", back)
	}
}

func TestGenerateReportMD(t *testing.T) {
	r := flatReport()
	md := GenerateReportMD(r, nil, ReportOptions{})
	for _, want := range []string{
		"# graftlab benchmark report",
		"**1 warmup**",      // quick-scale methodology echoed
		"**5 measurement**", // quick-scale runs
		"seed **1996**",     // reproducibility contract
		"Table 5: MD5 Fingerprinting",
		"NOISY", // the 40% CV script row is flagged
		"| compiled-unsafe | total_ns | 100ms | 2.0% | 5 |",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("REPORT.md lacks %q:\n%s", want, md)
		}
	}
	if strings.Contains(md, "Regression gate") {
		t.Error("report without comparison has a gate section")
	}
}

func TestGenerateReportMDWithComparison(t *testing.T) {
	r := flatReport()
	base := flatReport()
	base.Cells[2].Value = float64(50 * time.Millisecond) // current is 2x slower, CV 2% -> regression
	base.Cells = base.Cells[:3]                          // script row absent from baseline -> skip
	cmp := CompareReports(base, r, CompareOptions{Tolerance: 0.30})
	md := GenerateReportMD(r, cmp, ReportOptions{
		BaselinePath: "BENCH_baseline.json", Tolerance: 0.30,
	})
	for _, want := range []string{
		"## Regression gate",
		"BENCH_baseline.json",
		"Cohen's d",
		"**regression**",
		"Not fully checked",
		"row absent from baseline",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("comparison REPORT.md lacks %q:\n%s", want, md)
		}
	}
}
