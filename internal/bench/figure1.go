package bench

import (
	"fmt"
	"strings"
	"time"

	"graftlab/internal/stats"
	"graftlab/internal/tech"
)

// RunFigure1 reproduces Figure 1: the eviction graft's break-even point
// as a function of upcall time, with the compiled technologies'
// break-even levels as horizontal reference lines. As in the paper, the
// curve is computed from the measured native graft time:
// break-even(L) = faultTime / (nativeGraftTime + L). It reuses table2's
// cells from ran when Table 2 already ran in this invocation, and runs
// RunEviction otherwise.
//
// One row per point of the 0..50µs sweep, the paper's x-axis, named by
// its upcall time: upcall_ns, the computed break_even and, for every
// fifth point, measured_break_even, the empirical check with the
// compiled graft actually run behind an upcall domain with that
// synthetic latency. The scalars are the fault and native graft times,
// the safe-language and SFI reference levels, and crossover_ns, the
// largest upcall time at which a user-level server still beats the
// slower of the two compiled technologies.
func RunFigure1(cfg Config, ran []Cell) ([]Cell, error) {
	ev := CellsOf(ran, "table2")
	if len(ev) == 0 {
		var err error
		if ev, err = RunEviction(cfg); err != nil {
			return nil, err
		}
	}
	x := indexCells(ev)
	fault := x.dur("", "fault_ns")
	native := x.dur(string(tech.CompiledUnsafe), "per_eviction_ns")
	safe := x.v(string(tech.CompiledSafe), "break_even")
	sfi := x.v(string(tech.CompiledSFI), "break_even")
	if native == 0 {
		return nil, fmt.Errorf("bench: figure 1 needs the compiled-unsafe row of Table 2")
	}
	out := &cellList{exp: "figure1"}
	out.add("", "fault_ns", "ns", float64(fault))
	out.add("", "native_ns", "ns", float64(native))
	out.add("", "safe_level", "ratio", safe)
	out.add("", "sfi_level", "ratio", sfi)
	for us := 0; us <= 50; us += 2 {
		L := time.Duration(us) * time.Microsecond
		row := L.String()
		out.add(row, "upcall_ns", "ns", float64(L))
		out.add(row, "break_even", "ratio", float64(fault)/float64(native+L))
		if us%10 == 0 {
			measured, err := measureUpcallEvict(cfg, L)
			if err != nil {
				return nil, err
			}
			if measured > 0 {
				out.add(row, "measured_break_even", "ratio", float64(fault)/float64(measured))
			}
		}
	}
	// Crossover: upcall time where the server's break-even drops to the
	// compiled level: L = fault/level - native.
	level := safe
	if sfi > 0 && (level == 0 || sfi < level) {
		level = sfi
	}
	var crossover time.Duration
	if level > 0 {
		crossover = max(time.Duration(float64(fault)/level)-native, 0)
	}
	out.add("", "crossover_ns", "ns", float64(crossover))
	return out.cells, nil
}

// figure1Table renders the curve as a text series.
func figure1Table(cells []Cell) *stats.Table {
	x := indexCells(cells)
	t := &stats.Table{
		Title:  "Figure 1: Break-Even vs Upcall Time (VM page eviction)",
		Header: []string{"upcall time", "computed", "measured", ""},
		Caption: fmt.Sprintf(
			"break-even(L) = fault(%s) / (native graft %s + L). Reference levels:\n"+
				"safe-language %.0f, SFI %.0f. A user-level server competes with compiled\n"+
				"downloaded code only below L = %s (paper: ~5-10µs).",
			stats.FormatDuration(x.dur("", "fault_ns")), stats.FormatDuration(x.dur("", "native_ns")),
			x.v("", "safe_level"), x.v("", "sfi_level"), stats.FormatDuration(x.dur("", "crossover_ns"))),
	}
	points := rowsWith(cells, "break_even")
	maxBE := 0.0
	for _, p := range points {
		maxBE = max(maxBE, x.v(p, "break_even"))
	}
	for _, p := range points {
		be := x.v(p, "break_even")
		barLen := 0
		if maxBE > 0 {
			barLen = int(be / maxBE * 40)
		}
		measured := ""
		if m := x.v(p, "measured_break_even"); m > 0 {
			measured = stats.Count(m)
		}
		t.AddRow(stats.FormatDuration(x.dur(p, "upcall_ns")),
			stats.Count(be),
			measured,
			strings.Repeat("#", barLen))
	}
	return t
}

// measureUpcallEvict times the eviction graft behind an upcall domain
// with synthetic latency L: one run, after 16 untimed decisions, whose
// mean per-invocation time it returns.
func measureUpcallEvict(cfg Config, L time.Duration) (time.Duration, error) {
	sc, err := EvictScenario(cfg, Upcall(tech.CompiledUnsafe, tech.Options{VM: cfg.VM}, L))
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	if err := sc.Run(16); err != nil {
		return 0, err
	}
	iters := max(cfg.EvictIters/100, 50)
	ss, err := measureSeries(0, 1, arm{sc, iters, iters})
	if err != nil {
		return 0, err
	}
	return ss[0].Mean, nil
}

// Figure1CSV renders figure1's cells as a series for external plotting.
func Figure1CSV(cells []Cell) string {
	x := indexCells(cells)
	var b strings.Builder
	b.WriteString("upcall_us,break_even,measured,safe_level,sfi_level\n")
	for _, p := range rowsWith(cells, "break_even") {
		fmt.Fprintf(&b, "%.1f,%.1f,%.1f,%.1f,%.1f\n",
			x.v(p, "upcall_ns")/float64(time.Microsecond),
			x.v(p, "break_even"), x.v(p, "measured_break_even"), x.v("", "safe_level"), x.v("", "sfi_level"))
	}
	return b.String()
}
