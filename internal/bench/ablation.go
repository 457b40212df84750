package bench

import (
	"fmt"
	"time"

	"graftlab/internal/compile"
	"graftlab/internal/gel"
	"graftlab/internal/grafts"
	"graftlab/internal/md5x"
	"graftlab/internal/mem"
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

// RunAblation measures both ablations.
func RunAblation(cfg Config) (*AblationResult, error) {
	res := &AblationResult{MD5Bytes: cfg.MD5Bytes}

	evictPer := func(id tech.ID) (time.Duration, error) {
		h, err := newEvictHarness(cfg, id, false, 0)
		if err != nil {
			return 0, err
		}
		defer h.closer()
		for i := 0; i < 16; i++ {
			if err := h.invoke(); err != nil {
				return 0, err
			}
		}
		iters := max(cfg.EvictIters/2, 1000)
		best := time.Duration(0)
		for r := 0; r < max(cfg.Runs/3, 3); r++ {
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if err := h.invoke(); err != nil {
					return 0, err
				}
			}
			d := time.Since(t0) / time.Duration(iters)
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	var err error
	if res.EvictSafe, err = evictPer(tech.CompiledSafe); err != nil {
		return nil, err
	}
	if res.EvictSafeNil, err = evictPer(tech.CompiledSafeNil); err != nil {
		return nil, err
	}

	data := make([]byte, cfg.MD5Bytes)
	workload.FillPattern(data, 9)
	want := md5x.Of(data)
	md5Total := func(id tech.ID) (time.Duration, error) {
		g, err := tech.Load(id, grafts.MD5, mem.New(grafts.MDMemSize), tech.Options{VM: cfg.VM})
		if err != nil {
			return 0, err
		}
		h, err := grafts.NewMD5Graft(g)
		if err != nil {
			return 0, err
		}
		best := time.Duration(0)
		for r := 0; r < max(cfg.Runs/6, 2); r++ {
			if err := h.Reset(); err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := h.Write(data); err != nil {
				return 0, err
			}
			got, err := h.Sum()
			d := time.Since(t0)
			if err != nil {
				return 0, err
			}
			if got != want {
				return 0, fmt.Errorf("bench: ablation %s wrong digest", id)
			}
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	if res.MD5SFI, err = md5Total(tech.CompiledSFI); err != nil {
		return nil, err
	}
	if res.MD5SFIFull, err = md5Total(tech.CompiledSFIFull); err != nil {
		return nil, err
	}

	// A3: fuel metering on/off for the two metered engines.
	fuelPer := func(id tech.ID, fuel int64) (time.Duration, error) {
		m := mem.New(grafts.PEMemSize)
		g, err := tech.Load(id, grafts.PageEvict, m, tech.Options{Fuel: fuel, VM: cfg.VM})
		if err != nil {
			return 0, err
		}
		hh, err := newEvictHarnessWith(cfg, g, m)
		if err != nil {
			return 0, err
		}
		iters := max(cfg.EvictIters/10, 500)
		for i := 0; i < 32; i++ {
			if err := hh.invoke(); err != nil {
				return 0, err
			}
		}
		best := time.Duration(0)
		for r := 0; r < max(cfg.Runs/3, 3); r++ {
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if err := hh.invoke(); err != nil {
					return 0, err
				}
			}
			d := time.Since(t0) / time.Duration(iters)
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	const budget = 1 << 20
	if res.VMUnmetered, err = fuelPer(tech.Bytecode, 0); err != nil {
		return nil, err
	}
	if res.VMMetered, err = fuelPer(tech.Bytecode, budget); err != nil {
		return nil, err
	}
	if res.NativeUnmetered, err = fuelPer(tech.NativeUnsafe, 0); err != nil {
		return nil, err
	}
	if res.NativeMetered, err = fuelPer(tech.NativeUnsafe, budget); err != nil {
		return nil, err
	}

	// A4: translator variants, built directly on internal/vm so the
	// translator's knobs (fusion, fuel granularity) can be toggled.
	md5VM := func(baseline bool, oc vm.OptConfig) (time.Duration, error) {
		prog, err := gel.ParseAndCheck(grafts.MD5.GEL)
		if err != nil {
			return 0, err
		}
		mod, err := compile.Compile(prog)
		if err != nil {
			return 0, err
		}
		m := mem.New(grafts.MDMemSize)
		vmCfg := mem.Config{Policy: mem.PolicyChecked}
		var g tech.Graft
		if baseline {
			v, err := vm.New(mod, m, vmCfg)
			if err != nil {
				return 0, err
			}
			g = v
		} else {
			v, err := vm.NewOpt(mod, m, vmCfg, oc)
			if err != nil {
				return 0, err
			}
			g = v
		}
		h, err := grafts.NewMD5Graft(g)
		if err != nil {
			return 0, err
		}
		best := time.Duration(0)
		for r := 0; r < max(cfg.Runs/6, 2); r++ {
			if err := h.Reset(); err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := h.Write(data); err != nil {
				return 0, err
			}
			got, err := h.Sum()
			d := time.Since(t0)
			if err != nil {
				return 0, err
			}
			if got != want {
				return 0, fmt.Errorf("bench: vm ablation wrong digest")
			}
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	if res.VMBaselineMD5, err = md5VM(true, vm.OptConfig{}); err != nil {
		return nil, err
	}
	if res.VMOptMD5, err = md5VM(false, vm.OptConfig{}); err != nil {
		return nil, err
	}
	if res.VMNoFuseMD5, err = md5VM(false, vm.OptConfig{NoFuse: true}); err != nil {
		return nil, err
	}
	if res.VMPerInstrMD5, err = md5VM(false, vm.OptConfig{PerInstrFuel: true}); err != nil {
		return nil, err
	}

	// A5: per-eval re-parse vs structural parse cache, on the eviction
	// graft's Tcl translation.
	scriptEvict := func(cache bool) (time.Duration, error) {
		m := mem.New(grafts.PEMemSize)
		g, err := tech.Load(tech.Script, grafts.PageEvict, m, tech.Options{ScriptParseCache: cache})
		if err != nil {
			return 0, err
		}
		hh, err := newEvictHarnessWith(cfg, g, m)
		if err != nil {
			return 0, err
		}
		for i := 0; i < 8; i++ {
			if err := hh.invoke(); err != nil {
				return 0, err
			}
		}
		iters := max(cfg.EvictIters/100, 50)
		best := time.Duration(0)
		for r := 0; r < max(cfg.Runs/3, 3); r++ {
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if err := hh.invoke(); err != nil {
					return 0, err
				}
			}
			d := time.Since(t0) / time.Duration(iters)
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	if res.ScriptReparse, err = scriptEvict(false); err != nil {
		return nil, err
	}
	if res.ScriptParseCache, err = scriptEvict(true); err != nil {
		return nil, err
	}

	// A6: telemetry off vs on, on the compiled class (the fastest grafts,
	// so the per-invocation counter cost is largest in relative terms).
	// Instrumentation is a load-time decision, so one harness is loaded
	// raw and one instrumented, then the timed rounds alternate between
	// them: measuring the two sides back to back instead of in separate
	// windows cancels the clock drift that otherwise dwarfs a 2% effect.
	wasOn := telemetry.Enabled()
	defer telemetry.SetEnabled(wasOn)
	telemetry.SetEnabled(false)
	hOff, err := newEvictHarness(cfg, tech.CompiledUnsafe, false, 0)
	if err != nil {
		return nil, err
	}
	defer hOff.closer()
	gOff, err := tech.Load(tech.CompiledUnsafe, grafts.MD5, mem.New(grafts.MDMemSize), tech.Options{VM: cfg.VM})
	if err != nil {
		return nil, err
	}
	mdOff, err := grafts.NewMD5Graft(gOff)
	if err != nil {
		return nil, err
	}
	telemetry.SetEnabled(true)
	telemetry.ResetMetrics()
	hOn, err := newEvictHarness(cfg, tech.CompiledUnsafe, false, 0)
	if err != nil {
		return nil, err
	}
	defer hOn.closer()
	gOn, err := tech.Load(tech.CompiledUnsafe, grafts.MD5, mem.New(grafts.MDMemSize), tech.Options{VM: cfg.VM})
	if err != nil {
		return nil, err
	}
	mdOn, err := grafts.NewMD5Graft(gOn)
	if err != nil {
		return nil, err
	}
	telemetry.SetEnabled(wasOn)

	// A 2% effect on a ~250ns call is ~5ns, so this pair gets more
	// rounds than the other ablations; at ~250ns per invocation the
	// whole comparison still costs well under 100ms.
	evictIters := max(cfg.EvictIters, 5000)
	for _, h := range []*evictHarness{hOff, hOn} {
		for i := 0; i < 16; i++ {
			if err := h.invoke(); err != nil {
				return nil, err
			}
		}
	}
	for r := 0; r < max(cfg.Runs, 10); r++ {
		for _, side := range []struct {
			h    *evictHarness
			best *time.Duration
		}{{hOff, &res.EvictTelemetryOff}, {hOn, &res.EvictTelemetryOn}} {
			t0 := time.Now()
			for i := 0; i < evictIters; i++ {
				if err := side.h.invoke(); err != nil {
					return nil, err
				}
			}
			d := time.Since(t0) / time.Duration(evictIters)
			if *side.best == 0 || d < *side.best {
				*side.best = d
			}
		}
	}
	for r := 0; r < max(cfg.Runs/2, 6); r++ {
		for _, side := range []struct {
			h    *grafts.MD5Graft
			best *time.Duration
		}{{mdOff, &res.MD5TelemetryOff}, {mdOn, &res.MD5TelemetryOn}} {
			if err := side.h.Reset(); err != nil {
				return nil, err
			}
			t0 := time.Now()
			if _, err := side.h.Write(data); err != nil {
				return nil, err
			}
			got, err := side.h.Sum()
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			if got != want {
				return nil, fmt.Errorf("bench: telemetry ablation wrong digest")
			}
			if *side.best == 0 || d < *side.best {
				*side.best = d
			}
		}
	}

	// A7: full observability stack vs metrics alone, interleaved like
	// A6. The profiler is a load-time attachment (tech.Load hands the
	// engine its scope while a profile is installed), so the full-stack
	// harness is loaded with a profiler installed; span recording is
	// enabled for the whole timed window. The compiled eviction path has
	// no sampling hook and no span emit point, so the pair demonstrates
	// the stack stays off that hot path; the baseline side shares the
	// window safely for the same reason.
	telemetry.SetEnabled(true)
	if _, err := telemetry.EnableProfiler(telemetry.DefaultProfileInterval); err != nil {
		return nil, err
	}
	hFull, err := newEvictHarness(cfg, tech.CompiledUnsafe, false, 0)
	if err != nil {
		telemetry.DisableProfiler()
		return nil, err
	}
	defer hFull.closer()
	gVMProf, err := tech.Load(tech.Bytecode, grafts.MD5, mem.New(grafts.MDMemSize), tech.Options{VM: cfg.VM})
	if err != nil {
		telemetry.DisableProfiler()
		return nil, err
	}
	mdVMProf, err := grafts.NewMD5Graft(gVMProf)
	if err != nil {
		telemetry.DisableProfiler()
		return nil, err
	}
	telemetry.DisableProfiler()
	gVMPlain, err := tech.Load(tech.Bytecode, grafts.MD5, mem.New(grafts.MDMemSize), tech.Options{VM: cfg.VM})
	if err != nil {
		return nil, err
	}
	mdVMPlain, err := grafts.NewMD5Graft(gVMPlain)
	if err != nil {
		return nil, err
	}
	telemetry.SetEnabled(wasOn)

	if _, err := telemetry.EnableProfiler(telemetry.DefaultProfileInterval); err != nil {
		return nil, err
	}
	telemetry.EnableSpans(1 << 12)
	defer func() {
		telemetry.DisableSpans()
		telemetry.DisableProfiler()
	}()
	for _, h := range []*evictHarness{hOn, hFull} {
		for i := 0; i < 16; i++ {
			if err := h.invoke(); err != nil {
				return nil, err
			}
		}
	}
	for r := 0; r < max(cfg.Runs, 10); r++ {
		for _, side := range []struct {
			h    *evictHarness
			best *time.Duration
		}{{hOn, &res.EvictObsBase}, {hFull, &res.EvictObsFull}} {
			t0 := time.Now()
			for i := 0; i < evictIters; i++ {
				if err := side.h.invoke(); err != nil {
					return nil, err
				}
			}
			d := time.Since(t0) / time.Duration(evictIters)
			if *side.best == 0 || d < *side.best {
				*side.best = d
			}
		}
	}
	for r := 0; r < max(cfg.Runs/2, 6); r++ {
		for _, side := range []struct {
			h    *grafts.MD5Graft
			best *time.Duration
		}{{mdVMPlain, &res.MD5VMProfOff}, {mdVMProf, &res.MD5VMProfOn}} {
			if err := side.h.Reset(); err != nil {
				return nil, err
			}
			t0 := time.Now()
			if _, err := side.h.Write(data); err != nil {
				return nil, err
			}
			got, err := side.h.Sum()
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			if got != want {
				return nil, fmt.Errorf("bench: profiler ablation wrong digest")
			}
			if *side.best == 0 || d < *side.best {
				*side.best = d
			}
		}
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
