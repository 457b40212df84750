package bench

import (
	"os"
	"strings"
	"testing"
	"time"

	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/upcall"
)

// TestMain lets this test binary serve as the Table 1 signal child.
func TestMain(m *testing.M) {
	upcall.SignalChildMain()
	os.Exit(m.Run())
}

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	c := Quick()
	c.Runs = 2
	c.EvictIters = 200
	c.MD5Bytes = 16 << 10
	c.MD5ScriptBytes = 2 << 10
	c.LDWrites = 2048
	c.LDScriptWrites = 128
	c.SignalIters = 20
	c.FaultPages = 128
	c.DiskWriteBytes = 256 << 10
	return c
}

// timedRows returns the rows holding metric with their index.
func timedRows(t *testing.T, cells []Cell, metric string, want int) ([]string, cellIndex) {
	t.Helper()
	rows := rowsWith(cells, metric)
	if len(rows) != want {
		t.Fatalf("%d rows of %s, want %d", len(rows), metric, want)
	}
	return rows, indexCells(cells)
}

// p50 is a timed cell's median run.
func p50(x cellIndex, row, metric string) time.Duration {
	c, _ := x.cell(row, metric)
	return time.Duration(c.P50)
}

func TestRunEvictionShape(t *testing.T) {
	// The ordering checks below compare medians over 7 runs: one run of
	// 200 evictions is a window of tens of microseconds, which a single
	// disturbance (GC, a neighbour's burst) can inflate many times over.
	cfg := tiny()
	cfg.Runs = 7
	cells, err := RunEviction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, x := timedRows(t, cells, "per_eviction_ns", len(evictTechs)+1) // + upcall row
	for _, r := range rows {
		if x.v(r, "per_eviction_ns") <= 0 {
			t.Errorf("%s: nonpositive time", r)
		}
		if x.v(r, "break_even") <= 0 {
			t.Errorf("%s: nonpositive break-even", r)
		}
	}
	native := string(tech.CompiledUnsafe)
	if n := x.v(native, "normalized"); n != 1.0 {
		t.Errorf("native normalized = %v", n)
	}
	if x.v("", "hot_list_len") != float64(cfg.HotListLen) {
		t.Errorf("hot_list_len = %v", x.v("", "hot_list_len"))
	}
	// Ordering invariants from the paper: script >> bytecode > compiled.
	if s, n := p50(x, string(tech.Script), "per_eviction_ns"), p50(x, native, "per_eviction_ns"); s < 20*n {
		t.Errorf("script p50 (%v) not >> native p50 (%v)", s, n)
	}
	if b, n := p50(x, string(tech.Bytecode), "per_eviction_ns"), p50(x, native, "per_eviction_ns"); b < 2*n {
		t.Errorf("bytecode p50 (%v) not clearly slower than compiled p50 (%v)", b, n)
	}
	// Table renders.
	out := evictionTable(cells).String()
	for _, want := range []string{"Table 2", "compiled-unsafe", "break-even"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q", want)
		}
	}
}

func TestRunMD5Shape(t *testing.T) {
	cells, err := RunMD5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	_, x := timedRows(t, cells, "total_ns", len(md5Techs)+1)
	native, script := x.v(string(tech.CompiledUnsafe), "total_ns"), x.v(string(tech.Script), "total_ns")
	if native <= 0 || script <= 0 {
		t.Fatal("nonpositive totals")
	}
	if _, ok := x.cell(string(tech.Script), "scaled_by"); !ok {
		t.Error("script row should be marked scaled")
	}
	if _, ok := x.cell(string(tech.CompiledUnsafe), "scaled_by"); ok {
		t.Error("full-size row marked scaled")
	}
	if script < 50*native {
		t.Errorf("script MD5 (%v) not orders slower than native (%v)", time.Duration(script), time.Duration(native))
	}
	if !strings.Contains(md5Table(cells).String(), "MD5/disk") {
		t.Error("table lacks MD5/disk column")
	}
}

func TestRunLDShape(t *testing.T) {
	cells, err := RunLD(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rows, x := timedRows(t, cells, "total_ns", len(ldTechs)+1)
	saved := x.dur("", "saved_per_block_ns")
	if saved <= 0 {
		t.Error("log layer saves nothing per block?")
	}
	for _, r := range rows {
		if x.v(r, "per_block_ns") <= 0 {
			t.Errorf("%s: nonpositive per-block", r)
		}
	}
	// The paper's conclusion: compiled per-block overhead is far below
	// the virtual seek-time budget.
	if per := x.dur(string(tech.CompiledUnsafe), "per_block_ns"); per > saved {
		t.Errorf("compiled per-block %v exceeds savings %v", per, saved)
	}
	if !strings.Contains(ldTable(cells).String(), "Table 6") {
		t.Error("table title missing")
	}
}

func TestRunSignalAndFaultAndDisk(t *testing.T) {
	cfg := tiny()
	sig, err := RunSignal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := indexCells(sig)
	if x.v("", "crossing_ns") <= 0 {
		t.Error("crossing nonpositive")
	}
	if c, ok := x.cell("", "per_signal_ns"); ok && c.Value <= 0 {
		t.Error("nonpositive per-signal")
	}
	if !strings.Contains(signalTable(sig).String(), "Table 1") {
		t.Error("table 1 title missing")
	}

	ft, err := RunFault(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x = indexCells(ft)
	if x.v("", "measured_fault_ns") <= 0 || x.v("", "simulated_fault_ns") <= 0 {
		t.Errorf("fault cells %+v", ft)
	}
	if sim := x.dur("", "simulated_fault_ns"); sim < 5*time.Millisecond {
		t.Errorf("simulated fault %v implausibly small for a 90s disk", sim)
	}
	if !strings.Contains(faultTable(ft).String(), "Table 3") {
		t.Error("table 3 title missing")
	}

	dk, err := RunDisk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x = indexCells(dk)
	if x.v("", "model_bw") <= 0 || x.v("", "model_1mb_ns") <= 0 {
		t.Errorf("disk cells %+v", dk)
	}
	// The model disk should deliver 1-5 MB/s, the paper's band.
	if bw := x.v("", "model_bw"); bw < 1<<20 || bw > 5<<20 {
		t.Errorf("model bandwidth %v outside 1-5 MB/s band", bw)
	}
	if !strings.Contains(diskTable(dk).String(), "Table 4") {
		t.Error("table 4 title missing")
	}
}

func TestRunFigure1(t *testing.T) {
	cfg := tiny()
	ev, err := RunEviction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := RunFigure1(cfg, ev)
	if err != nil {
		t.Fatal(err)
	}
	points, x := timedRows(t, fig, "break_even", 26)
	// Break-even is monotonically decreasing in upcall time.
	for i := 1; i < len(points); i++ {
		if x.v(points[i], "break_even") > x.v(points[i-1], "break_even") {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
	if x.v(points[0], "break_even") <= x.v(points[len(points)-1], "break_even")*2 {
		t.Error("curve suspiciously flat")
	}
	if got := len(rowsWith(fig, "measured_break_even")); got != 6 {
		t.Errorf("%d measured points, want 6 (every 10µs)", got)
	}
	csv := Figure1CSV(fig)
	if !strings.Contains(csv, "upcall_us") || strings.Count(csv, "\n") != 27 {
		t.Errorf("csv malformed:\n%s", csv)
	}
	if !strings.Contains(figure1Table(fig).String(), "Figure 1") {
		t.Error("figure table missing title")
	}
}

func TestRunPacketFilterShape(t *testing.T) {
	cfg := tiny()
	cfg.Runs = 7 // the ordering check compares per-row medians
	cells, err := RunPacketFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, x := timedRows(t, cells, "per_packet_ns", len(pfBenchTechs)+1)
	for _, r := range rows {
		if x.v(r, "per_packet_ns") <= 0 || x.v(r, "pkts_per_sec") <= 0 {
			t.Errorf("%s: nonpositive measurement", r)
		}
	}
	if s, c := p50(x, string(tech.Script), "per_packet_ns"), p50(x, string(tech.CompiledUnsafe), "per_packet_ns"); s < 10*c {
		t.Errorf("script p50 (%v) not >> compiled p50 (%v)", s, c)
	}
	if !strings.Contains(packetFilterTable(cells).String(), "Packet Filter") {
		t.Error("table title missing")
	}
}

func TestRunAblation(t *testing.T) {
	cfg := tiny()
	cells, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, x := timedRows(t, cells, "best_ns", 22)
	for _, r := range rows {
		if x.v(r, "best_ns") <= 0 {
			t.Errorf("%s: nonpositive best run", r)
		}
		if x.v(r, "vs_sibling") <= 0 {
			t.Errorf("%s: no ratio to its sibling", r)
		}
	}
	// A6's telemetry-budget pair lands in the cells with its ratio.
	if x.v("eviction, compiled, telemetry off", "vs_sibling") != 1 ||
		x.v("eviction, compiled, telemetry on", "vs_sibling") <= 0 {
		t.Errorf("telemetry pair cells missing: %+v", cells)
	}
	if telemetry.Enabled() {
		t.Error("ablation left telemetry enabled")
	}
	out := ablationTable(cells).String()
	if !strings.Contains(out, "NIL") {
		t.Error("ablation table missing")
	}
	if !strings.Contains(out, "telemetry") {
		t.Error("ablation table missing telemetry rows")
	}
}

func TestSimulatedFaultTimeDerivation(t *testing.T) {
	cfg := Default()
	ft := cfg.SimulatedFaultTime()
	if ft < 10*time.Millisecond || ft > 30*time.Millisecond {
		t.Errorf("derived fault time %v outside 10-30ms band", ft)
	}
	cfg.SimFaultTime = time.Second
	if cfg.SimulatedFaultTime() != time.Second {
		t.Error("override ignored")
	}
}
