package bench

import (
	"fmt"

	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/vm"
	"graftlab/internal/workload"
)

// RunAblation isolates the design choices the paper's text analyzes
// inside its tables, and the costs this repo's own machinery adds:
//
//   - A1, §5.4: the Linux Modula-3 compiler emitted an explicit NIL check
//     per pointer access (2.5x over C) where Solaris/Alpha relied on the
//     hardware trap (1.1-1.4x): checked memory with and without the
//     explicit NIL compare, on the eviction graft.
//   - A2, §5.5: the Omniware beta sandboxed only writes and jumps; read
//     protection would add a mask per load: SFI with and without load
//     masking, on MD5 (load-heavy) — the paper notes the missing read
//     protection "gives it a performance advantage over Modula-3".
//   - A3, §4's preemption requirement ("we must be able to preempt an
//     extension that runs too long") is not free: the fuel metering each
//     execution engine pays per eviction, on and off.
//   - A4: the optimizing bytecode translator, piece by piece, on MD5 (the
//     hottest bytecode workload): the baseline interpreter, the full
//     translator, fusion disabled, and per-instruction instead of
//     block-granular fuel.
//   - A5: the script class's defining cost, made explicit: eviction via
//     Tcl with the paper's per-eval re-parse vs the opt-in structural
//     parse cache (internal/script/cache.go).
//   - A6: the telemetry subsystem's own observer cost, holding it to its
//     documented <=2% budget: the compiled eviction graft and the
//     compiled MD5 stream with per-graft metrics off vs on.
//   - A7: the profiler + causal span tracer, against the A6 metrics-on
//     baseline. The compiled eviction hot path carries neither a
//     sampling hook nor a span emit point, so the full observability
//     stack must stay inside the same <=2% budget there; bytecode MD5 is
//     where the fuel-sampling hook actually fires, so its pair prices
//     the profiler where it does real work.
//
// Each variant is a row named by its table label: best_ns, its best
// measured run, with the series' run count, CV and percentiles, and
// vs_sibling, that time over the first variant of its group (1 for the
// first).
//
// Each variant is a scenario timed through measureSeries with no warmup
// rounds (the variant is pre-warmed with a few untimed operations
// instead) and reports its best measured run (Sample.Min): an ablation
// compares two variants' floors, which the host's slow phases raise and
// never lower. The A6 and A7 pairs each time their two sides as two arms
// of one series.
func RunAblation(cfg Config) ([]Cell, error) {
	var (
		evictSafe, evictSafeNil, md5SFI, md5SFIFull            stats.Sample
		vmUnmetered, vmMetered, nativeUnmetered, nativeMetered stats.Sample
		vmBaselineMD5, vmOptMD5, vmNoFuseMD5, vmPerInstrMD5    stats.Sample
		scriptReparse, scriptParseCache                        stats.Sample
		evictTelemetryOff, evictTelemetryOn                    stats.Sample
		md5TelemetryOff, md5TelemetryOn                        stats.Sample
		evictObsBase, evictObsFull, md5VMProfOff, md5VMProfOn  stats.Sample
	)
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
	// arm's sample in the matching out slot.
	best := func(runs int, arms []arm, out ...*stats.Sample) {
		if err != nil {
			return
		}
		var ss []stats.Sample
		if ss, err = measureSeries(0, runs, arms...); err != nil {
			return
		}
		for i, s := range ss {
			*out[i] = s
		}
	}
	// evict times one eviction variant in runs of iters decisions.
	evict := func(load Loader, warmN, iters int, out *stats.Sample) {
		if err != nil {
			return
		}
		sc := keep(EvictScenario(cfg, load))
		warm(warmN, sc)
		best(max(cfg.Runs/3, 3), []arm{{sc, iters, iters}}, out)
	}
	// md5 times one MD5 variant in whole fingerprints of data.
	md5 := func(load Loader, out *stats.Sample) {
		if err != nil {
			return
		}
		best(max(cfg.Runs/6, 2), []arm{{keep(MD5Scenario(load, data)), 1, 1}}, out)
	}
	class := func(id tech.ID) Loader { return Class(id, tech.Options{VM: cfg.VM}) }
	fuel := func(id tech.ID, budget int64) Loader { return Class(id, tech.Options{Fuel: budget, VM: cfg.VM}) }

	// A1: the explicit NIL compare, on the eviction graft.
	evictIters := max(cfg.EvictIters/2, 1000)
	evict(class(tech.CompiledSafe), 16, evictIters, &evictSafe)
	evict(class(tech.CompiledSafeNil), 16, evictIters, &evictSafeNil)
	// A2: SFI load masking, on MD5.
	md5(class(tech.CompiledSFI), &md5SFI)
	md5(class(tech.CompiledSFIFull), &md5SFIFull)
	// A3: fuel metering on/off for the two metered engines.
	const budget = 1 << 20
	fuelIters := max(cfg.EvictIters/10, 500)
	evict(fuel(tech.Bytecode, 0), 32, fuelIters, &vmUnmetered)
	evict(fuel(tech.Bytecode, budget), 32, fuelIters, &vmMetered)
	evict(fuel(tech.NativeUnsafe, 0), 32, fuelIters, &nativeUnmetered)
	evict(fuel(tech.NativeUnsafe, budget), 32, fuelIters, &nativeMetered)
	// A4: translator variants, built directly on internal/vm so the
	// translator's knobs (fusion, fuel granularity) can be toggled.
	md5(Translator(true, vm.OptConfig{}), &vmBaselineMD5)
	md5(Translator(false, vm.OptConfig{}), &vmOptMD5)
	md5(Translator(false, vm.OptConfig{NoFuse: true}), &vmNoFuseMD5)
	md5(Translator(false, vm.OptConfig{PerInstrFuel: true}), &vmPerInstrMD5)
	// A5: per-eval re-parse vs structural parse cache, on the eviction
	// graft's Tcl translation.
	scriptIters := max(cfg.EvictIters/100, 50)
	evict(Class(tech.Script, tech.Options{}), 8, scriptIters, &scriptReparse)
	evict(Class(tech.Script, tech.Options{ScriptParseCache: true}), 8, scriptIters, &scriptParseCache)
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
		&evictTelemetryOff, &evictTelemetryOn)
	best(md5Rounds, []arm{{mdOff, 1, 1}, {mdOn, 1, 1}}, &md5TelemetryOff, &md5TelemetryOn)
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
		&evictObsBase, &evictObsFull)
	best(md5Rounds, []arm{{mdVMPlain, 1, 1}, {mdVMProf, 1, 1}}, &md5VMProfOff, &md5VMProfOn)
	if err != nil {
		return nil, err
	}

	// The table's rows in order: each group's first variant, then the
	// variants compared with it.
	md5KB := fmt.Sprintf("MD5 %dKB, ", cfg.MD5Bytes>>10)
	groups := []struct {
		labels []string
		ss     []*stats.Sample
	}{
		{[]string{"eviction, checked (trap NIL)", "eviction, checked + explicit NIL"},
			[]*stats.Sample{&evictSafe, &evictSafeNil}},
		{[]string{md5KB + "SFI write/jump", md5KB + "SFI + read masking"},
			[]*stats.Sample{&md5SFI, &md5SFIFull}},
		{[]string{"eviction, bytecode VM unmetered", "eviction, bytecode VM + fuel"},
			[]*stats.Sample{&vmUnmetered, &vmMetered}},
		{[]string{"eviction, runtime codegen unmetered", "eviction, runtime codegen + fuel"},
			[]*stats.Sample{&nativeUnmetered, &nativeMetered}},
		{[]string{md5KB + "vm baseline interp", md5KB + "vm opt translator", md5KB + "vm opt - fusion", md5KB + "vm opt - block fuel"},
			[]*stats.Sample{&vmBaselineMD5, &vmOptMD5, &vmNoFuseMD5, &vmPerInstrMD5}},
		{[]string{"eviction, Tcl per-eval re-parse", "eviction, Tcl + parse cache"},
			[]*stats.Sample{&scriptReparse, &scriptParseCache}},
		{[]string{"eviction, compiled, telemetry off", "eviction, compiled, telemetry on"},
			[]*stats.Sample{&evictTelemetryOff, &evictTelemetryOn}},
		{[]string{md5KB + "compiled, telemetry off", md5KB + "compiled, telemetry on"},
			[]*stats.Sample{&md5TelemetryOff, &md5TelemetryOn}},
		{[]string{"eviction, compiled, metrics only", "eviction, compiled, + profiler + spans"},
			[]*stats.Sample{&evictObsBase, &evictObsFull}},
		{[]string{md5KB + "vm opt, profiler off", md5KB + "vm opt, profiler on"},
			[]*stats.Sample{&md5VMProfOff, &md5VMProfOn}},
	}
	out := &cellList{exp: "ablation"}
	for _, g := range groups {
		first := g.ss[0].Min
		for i, s := range g.ss {
			out.sample(g.labels[i], "best_ns", s.Min, *s)
			switch {
			case i == 0:
				out.add(g.labels[i], "vs_sibling", "ratio", 1)
			case first > 0:
				out.add(g.labels[i], "vs_sibling", "ratio", float64(s.Min)/float64(first))
			}
		}
	}
	return out.cells, nil
}

// ablationTable renders every ablation row with its ratio to the first
// variant of its group.
func ablationTable(cells []Cell) *stats.Table {
	x := indexCells(cells)
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
	for _, row := range rowsWith(cells, "best_ns") {
		vs := "N.A."
		if c, ok := x.cell(row, "vs_sibling"); ok {
			vs = fmt.Sprintf("%.2fx", c.Value)
		}
		t.AddRow(row, stats.FormatDuration(x.dur(row, "best_ns")), vs)
	}
	return t
}
