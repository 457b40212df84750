package bench

import (
	"fmt"
	"time"

	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/vm"
	"graftlab/internal/workload"
)

// AblationResult isolates the two design choices the paper's text
// analyzes inside its tables:
//
//   - §5.4: the Linux Modula-3 compiler emitted an explicit NIL check per
//     pointer access (2.5x over C) where Solaris/Alpha relied on the
//     hardware trap (1.1-1.4x). A1 measures checked memory with and
//     without the explicit NIL compare, on the eviction graft.
//   - §5.5: the Omniware beta sandboxed only writes and jumps; read
//     protection would add a mask per load. A2 measures SFI with and
//     without load masking, on MD5 (load-heavy) — the paper notes the
//     missing read protection "gives it a performance advantage over
//     Modula-3".
//   - §4's preemption requirement ("we must be able to preempt an
//     extension that runs too long") is not free: A3 measures the fuel
//     metering each execution engine pays per eviction, on and off.
type AblationResult struct {
	EvictSafe    time.Duration // checked, hardware-trap NIL
	EvictSafeNil time.Duration // checked + explicit NIL compare
	MD5SFI       time.Duration // write/jump sandboxing only
	MD5SFIFull   time.Duration // + load masking
	MD5Bytes     int
	// Fuel-metering cost per eviction, per engine.
	VMUnmetered     time.Duration
	VMMetered       time.Duration
	NativeUnmetered time.Duration
	NativeMetered   time.Duration
	// A4: the optimizing bytecode translator, piece by piece, on MD5
	// (the hottest bytecode workload): the baseline interpreter, the full
	// translator, fusion disabled, and per-instruction instead of
	// block-granular fuel.
	VMBaselineMD5 time.Duration
	VMOptMD5      time.Duration
	VMNoFuseMD5   time.Duration
	VMPerInstrMD5 time.Duration
	// A5: the script class's defining cost, made explicit: eviction via
	// Tcl with the paper's per-eval re-parse vs the opt-in structural
	// parse cache (internal/script/cache.go).
	ScriptReparse    time.Duration
	ScriptParseCache time.Duration
	// A6: the telemetry subsystem's own observer cost, holding it to its
	// documented <=2% budget: the compiled eviction graft and the compiled
	// MD5 stream with per-graft metrics off vs on.
	EvictTelemetryOff time.Duration
	EvictTelemetryOn  time.Duration
	MD5TelemetryOff   time.Duration
	MD5TelemetryOn    time.Duration
	// A7: the profiler + causal span tracer, against the A6 metrics-on
	// baseline. The compiled eviction hot path carries neither a
	// sampling hook nor a span emit point, so the full observability
	// stack must stay inside the same <=2% budget there; bytecode MD5
	// is where the fuel-sampling hook actually fires, so its pair
	// prices the profiler where it does real work.
	EvictObsBase time.Duration // metrics on, profiler+spans off
	EvictObsFull time.Duration // metrics + profiler + span tracing on
	MD5VMProfOff time.Duration
	MD5VMProfOn  time.Duration
}

// RunAblation measures the ablations. Each variant is a scenario timed
// through measureSeries with no warmup rounds (the variant is pre-warmed
// with a few untimed operations instead) and reports its best measured
// run (Sample.Min): an ablation compares two variants' floors, which
// the host's slow phases raise and never lower. The A6 and A7 pairs
// each time their two sides as two arms of one series.
func RunAblation(cfg Config) (*AblationResult, error) {
	res := &AblationResult{MD5Bytes: cfg.MD5Bytes}
	data := make([]byte, cfg.MD5Bytes)
	workload.FillPattern(data, 9)

	// The helpers below do nothing once err is set, so a sequence of
	// them stops at its first error.
	var err error
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	// keep records a constructor's error, or its scenario's closer.
	keep := func(sc Scenario, e error) Scenario {
		switch {
		case e == nil:
			closers = append(closers, sc.Close)
		case err == nil:
			err = e
		}
		return sc
	}
	// warm runs n untimed operations of each scenario.
	warm := func(n int, scs ...Scenario) {
		for _, sc := range scs {
			if err == nil {
				err = sc.Run(n)
			}
		}
	}
	// best times the arms as one series of runs rounds and stores each
	// arm's best run in the matching out slot.
	best := func(runs int, arms []arm, out ...*time.Duration) {
		if err != nil {
			return
		}
		var ss []stats.Sample
		if ss, err = measureSeries(0, runs, arms...); err != nil {
			return
		}
		for i, s := range ss {
			*out[i] = s.Min
		}
	}
	// evict times one eviction variant in runs of iters decisions.
	evict := func(load Loader, warmN, iters int, out *time.Duration) {
		if err != nil {
			return
		}
		sc := keep(EvictScenario(cfg, load))
		warm(warmN, sc)
		best(max(cfg.Runs/3, 3), []arm{{sc, iters, iters}}, out)
	}
	// md5 times one MD5 variant in whole fingerprints of data.
	md5 := func(load Loader, out *time.Duration) {
		if err != nil {
			return
		}
		best(max(cfg.Runs/6, 2), []arm{{keep(MD5Scenario(load, data)), 1, 1}}, out)
	}
	class := func(id tech.ID) Loader { return Class(id, tech.Options{VM: cfg.VM}) }
	fuel := func(id tech.ID, budget int64) Loader { return Class(id, tech.Options{Fuel: budget, VM: cfg.VM}) }

	// A1: the explicit NIL compare, on the eviction graft.
	evictIters := max(cfg.EvictIters/2, 1000)
	evict(class(tech.CompiledSafe), 16, evictIters, &res.EvictSafe)
	evict(class(tech.CompiledSafeNil), 16, evictIters, &res.EvictSafeNil)
	// A2: SFI load masking, on MD5.
	md5(class(tech.CompiledSFI), &res.MD5SFI)
	md5(class(tech.CompiledSFIFull), &res.MD5SFIFull)
	// A3: fuel metering on/off for the two metered engines.
	const budget = 1 << 20
	fuelIters := max(cfg.EvictIters/10, 500)
	evict(fuel(tech.Bytecode, 0), 32, fuelIters, &res.VMUnmetered)
	evict(fuel(tech.Bytecode, budget), 32, fuelIters, &res.VMMetered)
	evict(fuel(tech.NativeUnsafe, 0), 32, fuelIters, &res.NativeUnmetered)
	evict(fuel(tech.NativeUnsafe, budget), 32, fuelIters, &res.NativeMetered)
	// A4: translator variants, built directly on internal/vm so the
	// translator's knobs (fusion, fuel granularity) can be toggled.
	md5(Translator(true, vm.OptConfig{}), &res.VMBaselineMD5)
	md5(Translator(false, vm.OptConfig{}), &res.VMOptMD5)
	md5(Translator(false, vm.OptConfig{NoFuse: true}), &res.VMNoFuseMD5)
	md5(Translator(false, vm.OptConfig{PerInstrFuel: true}), &res.VMPerInstrMD5)
	// A5: per-eval re-parse vs structural parse cache, on the eviction
	// graft's Tcl translation.
	scriptIters := max(cfg.EvictIters/100, 50)
	evict(Class(tech.Script, tech.Options{}), 8, scriptIters, &res.ScriptReparse)
	evict(Class(tech.Script, tech.Options{ScriptParseCache: true}), 8, scriptIters, &res.ScriptParseCache)
	if err != nil {
		return nil, err
	}

	// A6: telemetry off vs on, on the compiled class (the fastest grafts,
	// so the per-invocation counter cost is largest in relative terms).
	// Instrumentation is a load-time decision, so one scenario is loaded
	// raw and one instrumented, then each pair is timed as two arms of
	// one series: measuring the two sides in turns instead of in
	// separate windows cancels the clock drift that otherwise dwarfs a
	// 2% effect.
	wasOn := telemetry.Enabled()
	defer telemetry.SetEnabled(wasOn)
	telemetry.SetEnabled(false)
	evOff := keep(EvictScenario(cfg, class(tech.CompiledUnsafe)))
	mdOff := keep(MD5Scenario(class(tech.CompiledUnsafe), data))
	telemetry.SetEnabled(true)
	telemetry.ResetMetrics()
	evOn := keep(EvictScenario(cfg, class(tech.CompiledUnsafe)))
	mdOn := keep(MD5Scenario(class(tech.CompiledUnsafe), data))
	telemetry.SetEnabled(wasOn)

	// A 2% effect on a ~250ns call is ~5ns, so these pairs get more
	// rounds than the other ablations; at ~250ns per invocation the
	// whole comparison still costs well under 100ms.
	pairIters := max(cfg.EvictIters, 5000)
	evictRounds, md5Rounds := max(cfg.Runs, 10), max(cfg.Runs/2, 6)
	warm(16, evOff, evOn)
	best(evictRounds, []arm{{evOff, pairIters, pairIters}, {evOn, pairIters, pairIters}},
		&res.EvictTelemetryOff, &res.EvictTelemetryOn)
	best(md5Rounds, []arm{{mdOff, 1, 1}, {mdOn, 1, 1}}, &res.MD5TelemetryOff, &res.MD5TelemetryOn)
	if err != nil {
		return nil, err
	}

	// A7: full observability stack vs metrics alone, paired like A6.
	// The profiler is a load-time attachment (tech.Load hands the
	// engine its scope while a profile is installed), so the full-stack
	// scenarios are loaded with a profiler installed; span recording is
	// enabled for the whole timed window. The compiled eviction path has
	// no sampling hook and no span emit point, so the pair demonstrates
	// the stack stays off that hot path; the baseline side shares the
	// window safely for the same reason.
	telemetry.SetEnabled(true)
	if _, err := telemetry.EnableProfiler(telemetry.DefaultProfileInterval); err != nil {
		return nil, err
	}
	evFull := keep(EvictScenario(cfg, class(tech.CompiledUnsafe)))
	mdVMProf := keep(MD5Scenario(class(tech.Bytecode), data))
	telemetry.DisableProfiler()
	mdVMPlain := keep(MD5Scenario(class(tech.Bytecode), data))
	telemetry.SetEnabled(wasOn)
	if err != nil {
		return nil, err
	}

	if _, err := telemetry.EnableProfiler(telemetry.DefaultProfileInterval); err != nil {
		return nil, err
	}
	telemetry.EnableSpans(1 << 12)
	defer func() {
		telemetry.DisableSpans()
		telemetry.DisableProfiler()
	}()
	warm(16, evOn, evFull)
	best(evictRounds, []arm{{evOn, pairIters, pairIters}, {evFull, pairIters, pairIters}},
		&res.EvictObsBase, &res.EvictObsFull)
	best(md5Rounds, []arm{{mdVMPlain, 1, 1}, {mdVMProf, 1, 1}}, &res.MD5VMProfOff, &res.MD5VMProfOn)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders both ablations.
func (r *AblationResult) Table() *stats.Table {
	t := &stats.Table{
		Title:  "Ablations: NIL checks (§5.4), SFI read protection (§5.5), preemption (§4), telemetry",
		Header: []string{"variant", "time", "vs sibling"},
		Caption: "Paper: explicit NIL checks took Linux Modula-3 from ~1.1x to 2.5x of C on\n" +
			"this graft; Omniware's missing read protection flattered its MD5 number.\n" +
			"Fuel metering is the repo's preemption mechanism; its cost per eviction is\n" +
			"within run-to-run noise on both metered engines. The telemetry rows hold\n" +
			"the observability layer to its <=2% budget (docs/observability.md); the\n" +
			"profiler/span rows extend that budget to the full stack — the compiled hot\n" +
			"path carries no sampling hook, bytecode MD5 pays the fuel-sampling tick.",
	}
	rel := func(a, b time.Duration) string {
		if b == 0 {
			return "N.A."
		}
		return fmt.Sprintf("%.2fx", float64(a)/float64(b))
	}
	t.AddRow("eviction, checked (trap NIL)", stats.FormatDuration(r.EvictSafe), "1.00x")
	t.AddRow("eviction, checked + explicit NIL", stats.FormatDuration(r.EvictSafeNil), rel(r.EvictSafeNil, r.EvictSafe))
	t.AddRow(fmt.Sprintf("MD5 %dKB, SFI write/jump", r.MD5Bytes>>10), stats.FormatDuration(r.MD5SFI), "1.00x")
	t.AddRow(fmt.Sprintf("MD5 %dKB, SFI + read masking", r.MD5Bytes>>10), stats.FormatDuration(r.MD5SFIFull), rel(r.MD5SFIFull, r.MD5SFI))
	t.AddRow("eviction, bytecode VM unmetered", stats.FormatDuration(r.VMUnmetered), "1.00x")
	t.AddRow("eviction, bytecode VM + fuel", stats.FormatDuration(r.VMMetered), rel(r.VMMetered, r.VMUnmetered))
	t.AddRow("eviction, runtime codegen unmetered", stats.FormatDuration(r.NativeUnmetered), "1.00x")
	t.AddRow("eviction, runtime codegen + fuel", stats.FormatDuration(r.NativeMetered), rel(r.NativeMetered, r.NativeUnmetered))
	t.AddRow(fmt.Sprintf("MD5 %dKB, vm baseline interp", r.MD5Bytes>>10), stats.FormatDuration(r.VMBaselineMD5), "1.00x")
	t.AddRow(fmt.Sprintf("MD5 %dKB, vm opt translator", r.MD5Bytes>>10), stats.FormatDuration(r.VMOptMD5), rel(r.VMOptMD5, r.VMBaselineMD5))
	t.AddRow(fmt.Sprintf("MD5 %dKB, vm opt - fusion", r.MD5Bytes>>10), stats.FormatDuration(r.VMNoFuseMD5), rel(r.VMNoFuseMD5, r.VMBaselineMD5))
	t.AddRow(fmt.Sprintf("MD5 %dKB, vm opt - block fuel", r.MD5Bytes>>10), stats.FormatDuration(r.VMPerInstrMD5), rel(r.VMPerInstrMD5, r.VMBaselineMD5))
	t.AddRow("eviction, Tcl per-eval re-parse", stats.FormatDuration(r.ScriptReparse), "1.00x")
	t.AddRow("eviction, Tcl + parse cache", stats.FormatDuration(r.ScriptParseCache), rel(r.ScriptParseCache, r.ScriptReparse))
	t.AddRow("eviction, compiled, telemetry off", stats.FormatDuration(r.EvictTelemetryOff), "1.00x")
	t.AddRow("eviction, compiled, telemetry on", stats.FormatDuration(r.EvictTelemetryOn), rel(r.EvictTelemetryOn, r.EvictTelemetryOff))
	t.AddRow(fmt.Sprintf("MD5 %dKB, compiled, telemetry off", r.MD5Bytes>>10), stats.FormatDuration(r.MD5TelemetryOff), "1.00x")
	t.AddRow(fmt.Sprintf("MD5 %dKB, compiled, telemetry on", r.MD5Bytes>>10), stats.FormatDuration(r.MD5TelemetryOn), rel(r.MD5TelemetryOn, r.MD5TelemetryOff))
	t.AddRow("eviction, compiled, metrics only", stats.FormatDuration(r.EvictObsBase), "1.00x")
	t.AddRow("eviction, compiled, + profiler + spans", stats.FormatDuration(r.EvictObsFull), rel(r.EvictObsFull, r.EvictObsBase))
	t.AddRow(fmt.Sprintf("MD5 %dKB, vm opt, profiler off", r.MD5Bytes>>10), stats.FormatDuration(r.MD5VMProfOff), "1.00x")
	t.AddRow(fmt.Sprintf("MD5 %dKB, vm opt, profiler on", r.MD5Bytes>>10), stats.FormatDuration(r.MD5VMProfOn), rel(r.MD5VMProfOn, r.MD5VMProfOff))
	return t
}
