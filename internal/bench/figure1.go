package bench

import (
	"fmt"
	"strings"
	"time"

	"graftlab/internal/stats"
	"graftlab/internal/tech"
)

// Figure1Point is one x,y pair of the break-even curve. Measured is the
// empirical check: the same graft actually run behind an upcall domain
// with that synthetic latency (0 when the point was not measured).
type Figure1Point struct {
	UpcallTime time.Duration
	BreakEven  float64
	Measured   float64
}

// Figure1Result reproduces Figure 1: the eviction graft's break-even
// point as a function of upcall time, with the compiled technologies'
// break-even levels as horizontal reference lines. As in the paper, the
// curve is computed from the measured native graft time: break-even(L) =
// faultTime / (nativeGraftTime + L).
type Figure1Result struct {
	FaultTime  time.Duration
	NativeTime time.Duration
	Points     []Figure1Point
	// Reference break-even levels for the safe compiled technologies.
	SafeLevel float64
	SFILevel  float64
	// CrossoverUpcall is the largest upcall time at which a user-level
	// server still beats the slower of the two compiled technologies.
	CrossoverUpcall time.Duration
}

// RunFigure1 computes the sweep from an EvictResult (reusing its
// measurements rather than re-running them).
func RunFigure1(cfg Config, ev *EvictResult) (*Figure1Result, error) {
	res := &Figure1Result{FaultTime: ev.FaultTime}
	for _, row := range ev.Rows {
		switch tech.ID(row.Tech) {
		case tech.CompiledUnsafe:
			res.NativeTime = row.Per
		case tech.CompiledSafe:
			res.SafeLevel = row.BreakEven
		case tech.CompiledSFI:
			res.SFILevel = row.BreakEven
		}
	}
	if res.NativeTime == 0 {
		return nil, fmt.Errorf("bench: figure 1 needs the compiled-unsafe row of Table 2")
	}
	// Sweep 0..50µs, the paper's x-axis. Every fifth point is also
	// measured end to end: the compiled graft behind a real upcall
	// domain with the synthetic latency applied.
	for us := 0; us <= 50; us += 2 {
		L := time.Duration(us) * time.Microsecond
		be := float64(res.FaultTime) / float64(res.NativeTime+L)
		pt := Figure1Point{UpcallTime: L, BreakEven: be}
		if us%10 == 0 {
			measured, err := measureUpcallEvict(cfg, L)
			if err != nil {
				return nil, err
			}
			if measured > 0 {
				pt.Measured = float64(res.FaultTime) / float64(measured)
			}
		}
		res.Points = append(res.Points, pt)
	}
	// Crossover: upcall time where the server's break-even drops to the
	// compiled level: L = fault/level - native.
	level := res.SafeLevel
	if res.SFILevel > 0 && (level == 0 || res.SFILevel < level) {
		level = res.SFILevel
	}
	if level > 0 {
		L := time.Duration(float64(res.FaultTime)/level) - res.NativeTime
		if L < 0 {
			L = 0
		}
		res.CrossoverUpcall = L
	}
	return res, nil
}

// Table renders the curve as a text series.
func (r *Figure1Result) Table() *stats.Table {
	t := &stats.Table{
		Title:  "Figure 1: Break-Even vs Upcall Time (VM page eviction)",
		Header: []string{"upcall time", "computed", "measured", ""},
		Caption: fmt.Sprintf(
			"break-even(L) = fault(%s) / (native graft %s + L). Reference levels:\n"+
				"safe-language %.0f, SFI %.0f. A user-level server competes with compiled\n"+
				"downloaded code only below L = %s (paper: ~5-10µs).",
			stats.FormatDuration(r.FaultTime), stats.FormatDuration(r.NativeTime),
			r.SafeLevel, r.SFILevel, stats.FormatDuration(r.CrossoverUpcall)),
	}
	maxBE := 0.0
	for _, p := range r.Points {
		if p.BreakEven > maxBE {
			maxBE = p.BreakEven
		}
	}
	for _, p := range r.Points {
		barLen := 0
		if maxBE > 0 {
			barLen = int(p.BreakEven / maxBE * 40)
		}
		measured := ""
		if p.Measured > 0 {
			measured = stats.Count(p.Measured)
		}
		t.AddRow(stats.FormatDuration(p.UpcallTime),
			stats.Count(p.BreakEven),
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

// CSV renders the series for external plotting.
func (r *Figure1Result) CSV() string {
	var b strings.Builder
	b.WriteString("upcall_us,break_even,measured,safe_level,sfi_level\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%.1f,%.1f,%.1f,%.1f,%.1f\n",
			float64(p.UpcallTime)/float64(time.Microsecond),
			p.BreakEven, p.Measured, r.SafeLevel, r.SFILevel)
	}
	return b.String()
}
