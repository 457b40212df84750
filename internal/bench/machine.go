package bench

import (
	"fmt"
	"os"
	"time"

	"graftlab/internal/lmb"
	"graftlab/internal/stats"
	"graftlab/internal/upcall"
)

// RunSignal regenerates Table 1, the cost of kernel-to-user control
// transfer, the paper's proxy for an upcall: crossing_ns, the goroutine
// protection-domain crossing (this repo's floor for an aggressively
// tuned upcall path), and per_signal_ns, the real signal-handling time
// measured in a child process (handled-minus-ignored methodology). When
// the child cannot be run, per_signal_ns is absent and the reason goes
// to stderr.
func RunSignal(cfg Config) ([]Cell, error) {
	crossing, err := upcall.MeasureCrossing(20000)
	if err != nil {
		return nil, err
	}
	out := &cellList{exp: "table1"}
	out.add("", "crossing_ns", "ns", float64(crossing))
	exe := cfg.Exe
	if exe == "" {
		exe, err = os.Executable()
	}
	var sig upcall.SignalTiming
	if err == nil {
		sig, err = upcall.MeasureSignal(exe, upcall.DefaultSignalBatch, cfg.SignalIters)
	}
	if err != nil {
		unavailable("table1 signal delivery", err)
		return out.cells, nil
	}
	out.add("", "per_signal_ns", "ns", float64(sig.PerSignal))
	return out.cells, nil
}

// unavailable reports why a machine measurement is missing from its
// table, which then reads "unavailable".
func unavailable(what string, err error) {
	fmt.Fprintf(os.Stderr, "bench: %s unavailable: %v\n", what, err)
}

// signalTable renders the paper's Table 1 shape.
func signalTable(cells []Cell) *stats.Table {
	x := indexCells(cells)
	t := &stats.Table{
		Title:  "Table 1: Upcall Cost Proxies",
		Header: []string{"mechanism", "per-crossing"},
		Caption: "Signal delivery uses the paper's exact methodology: 20 signals handled vs\n" +
			"ignored by a child process, difference / 20. Paper: Alpha 19.5µs, HP-UX\n" +
			"25.8µs, Linux-1995 55.9µs, Solaris 40.3µs; upcall measured ~40% quicker\n" +
			"than a signal on BSD/OS.",
	}
	signal := "unavailable"
	if _, ok := x.cell("", "per_signal_ns"); ok {
		signal = stats.FormatDuration(x.dur("", "per_signal_ns"))
	}
	t.AddRow("signal delivery (this machine)", signal)
	t.AddRow("goroutine domain crossing", stats.FormatDuration(x.dur("", "crossing_ns")))
	return t
}

// RunFault regenerates Table 3, page fault service time: measured on
// the real machine (a COW fault, lat_pagefault style) and modeled for
// the 1990s disk, with the number of pages the measurement faulted.
func RunFault(cfg Config) ([]Cell, error) {
	pf, err := lmb.MeasurePageFault(cfg.FaultPages)
	if err != nil {
		return nil, err
	}
	out := &cellList{exp: "table3"}
	out.add("", "measured_fault_ns", "ns", float64(pf.PerFault))
	out.add("", "simulated_fault_ns", "ns", float64(cfg.SimulatedFaultTime()))
	out.add("", "pages", "count", float64(pf.Pages))
	return out.cells, nil
}

// faultTable renders the paper's Table 3 shape.
func faultTable(cells []Cell) *stats.Table {
	x := indexCells(cells)
	t := &stats.Table{
		Title:  "Table 3: Page Fault Time",
		Header: []string{"fault type", "time"},
		Caption: fmt.Sprintf(
			"Measured: %d COW faults via mmap (lat_pagefault method) — today's minor\n"+
				"fault. Simulated: disk-backed fault under the modeled geometry, the\n"+
				"quantity the paper's break-even uses. Paper: Alpha 25.1ms(16 pages),\n"+
				"HP-UX 17.9ms(4), Linux 4.7ms(1), Solaris 6.9ms(1).", int(x.v("", "pages"))),
	}
	t.AddRow("measured minor fault (this machine)", stats.FormatDuration(x.dur("", "measured_fault_ns")))
	t.AddRow("simulated disk-backed fault (model)", stats.FormatDuration(x.dur("", "simulated_fault_ns")))
	return t
}

// RunDisk regenerates Table 4: delivered write bandwidth and the time to
// move 1 MB, on this machine (lmdd method; absent, with the reason on
// stderr, when the write failed) and under the simulated geometry.
func RunDisk(cfg Config) ([]Cell, error) {
	out := &cellList{exp: "table4"}
	dw, err := lmb.MeasureDiskWrite(os.TempDir(), cfg.DiskWriteBytes)
	switch {
	case err != nil:
		unavailable("table4 disk write", err)
	case dw.BytesPerSec > 0:
		out.add("", "measured_bw", "bytes/s", float64(dw.BytesPerSec))
		out.add("", "measured_1mb_ns", "ns", float64(time.Duration(int64(time.Second)*(1<<20)/dw.BytesPerSec)))
	}
	g := cfg.Geometry
	model1MB := g.AvgSeek + g.HalfRotation +
		time.Duration(int64(1<<20)*int64(time.Second)/g.TransferRate)
	out.add("", "model_bw", "bytes/s", float64(int64(float64(1<<20)/model1MB.Seconds())))
	out.add("", "model_1mb_ns", "ns", float64(model1MB))
	return out.cells, nil
}

// diskTable renders the paper's Table 4 shape.
func diskTable(cells []Cell) *stats.Table {
	x := indexCells(cells)
	t := &stats.Table{
		Title:  "Table 4: Disk I/O Time",
		Header: []string{"disk", "bandwidth", "1MB access"},
		Caption: "Measured: lmdd-method write + fsync on this machine. Model: the simulated\n" +
			"mid-90s disk all virtual-time experiments use. Paper: Alpha 4364KB/s\n" +
			"(235ms/MB), HP-UX 1855KB/s (552ms), Linux 1694KB/s (604ms), Solaris\n" +
			"3126KB/s (320ms).",
	}
	kbs := func(metric string) string { return fmt.Sprintf("%d KB/s", int64(x.v("", metric))>>10) }
	if _, ok := x.cell("", "measured_bw"); ok {
		t.AddRow("this machine", kbs("measured_bw"), stats.FormatDuration(x.dur("", "measured_1mb_ns")))
	} else {
		t.AddRow("this machine", "unavailable", "")
	}
	t.AddRow("simulated model", kbs("model_bw"), stats.FormatDuration(x.dur("", "model_1mb_ns")))
	return t
}
