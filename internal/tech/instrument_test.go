package tech

import (
	"testing"
	"time"

	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

// instSrc loops a configurable number of times so fuel metering has
// something to count, and can be driven out of bounds for a trap.
var instSrc = Source{
	Name: "inst-test",
	GEL: `
func main(n) {
	var i = 0;
	var acc = 0;
	while (i < n) {
		acc = acc + i;
		i = i + 1;
	}
	return acc;
}
func oob() { return ld32(0x7FFFFFF0); }
`,
}

func withTelemetry(t *testing.T) {
	t.Helper()
	telemetry.ResetMetrics()
	telemetry.SetSampleInterval(1)
	telemetry.SetEnabled(true)
	t.Cleanup(func() {
		telemetry.SetEnabled(false)
		telemetry.SetSampleInterval(256)
		telemetry.ResetMetrics()
	})
}

func metricsFor(t *testing.T, graft, id string) telemetry.GraftSnapshot {
	t.Helper()
	for _, s := range telemetry.SnapshotAll() {
		if s.Graft == graft && s.Tech == id {
			return s
		}
	}
	t.Fatalf("no metrics recorded for %s/%s", graft, id)
	return telemetry.GraftSnapshot{}
}

func TestLoadUninstrumentedWhileDisabled(t *testing.T) {
	telemetry.ResetMetrics()
	g, err := Load(NativeUnsafe, instSrc, mem.New(1<<16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.(*instrumented); ok {
		t.Fatal("Load must return a raw graft while telemetry is disabled")
	}
	if _, err := g.Invoke("main", 3); err != nil {
		t.Fatal(err)
	}
	if n := len(telemetry.SnapshotAll()); n != 0 {
		t.Fatalf("disabled telemetry recorded %d snapshots", n)
	}
}

func TestInstrumentedInvocationMetrics(t *testing.T) {
	withTelemetry(t)
	for _, id := range []ID{NativeUnsafe, Bytecode, Script} {
		g, err := Load(id, Source{Name: instSrc.Name, GEL: instSrc.GEL,
			Tcl: "proc main {n} {\n set acc 0\n set i 0\n while {$i < $n} {\n set acc [expr $acc + $i]\n set i [expr $i + 1]\n }\n return $acc\n }"},
			mem.New(1<<16), Options{Fuel: 1 << 20})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, ok := g.(*instrumented); !ok {
			t.Fatalf("%s: Load did not instrument", id)
		}
		// Invoke path + resolved handle both count.
		if v, err := g.Invoke("main", 10); err != nil || v != 45 {
			t.Fatalf("%s: invoke = %d, %v", id, v, err)
		}
		call := Resolve(g, "main")
		for i := 0; i < 4; i++ {
			if v, _, err := call(telemetry.SpanCtx{}, []uint32{10}); err != nil || v != 45 {
				t.Fatalf("%s: direct = %d, %v", id, v, err)
			}
		}
		s := metricsFor(t, "inst-test", string(id))
		if s.Invocations != 5 {
			t.Errorf("%s: invocations = %d, want 5", id, s.Invocations)
		}
		if s.LatencySamples != 5 {
			t.Errorf("%s: latency samples = %d, want 5 (interval 1)", id, s.LatencySamples)
		}
		if s.LatencyP99 <= 0 || s.LatencyMax < s.LatencyP50 {
			t.Errorf("%s: broken latency stats: %+v", id, s)
		}
		if s.FuelConsumed <= 0 {
			t.Errorf("%s: fuel consumed = %d, want > 0 (metered engine)", id, s.FuelConsumed)
		}
	}
}

func TestInstrumentedTrapClassification(t *testing.T) {
	withTelemetry(t)
	g, err := Load(NativeSafe, instSrc, mem.New(1<<16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Invoke("oob"); err == nil {
		t.Fatal("expected an out-of-bounds trap")
	}
	s := metricsFor(t, "inst-test", string(NativeSafe))
	if s.Traps[mem.TrapOOBLoad.String()] != 1 {
		t.Errorf("trap counters = %v, want one %q", s.Traps, mem.TrapOOBLoad)
	}
}

func TestInstrumentedFuelPreemption(t *testing.T) {
	withTelemetry(t)
	g, err := Load(Bytecode, instSrc, mem.New(1<<16), Options{Fuel: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Invoke("main", 1000000); err == nil {
		t.Fatal("expected fuel exhaustion")
	}
	s := metricsFor(t, "inst-test", string(Bytecode))
	if s.FuelPreemptions != 1 {
		t.Errorf("fuel preemptions = %d, want 1 (%+v)", s.FuelPreemptions, s)
	}
	if s.FuelConsumed <= 0 || s.FuelConsumed > 16 {
		t.Errorf("fuel consumed = %d, want in (0,16]", s.FuelConsumed)
	}
}

func TestInstrumentedSharedAccumulator(t *testing.T) {
	withTelemetry(t)
	m := mem.New(1 << 16)
	g1, err := Load(NativeUnsafe, instSrc, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Load(NativeUnsafe, instSrc, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g1.Invoke("main", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Invoke("main", 1); err != nil {
		t.Fatal(err)
	}
	s := metricsFor(t, "inst-test", string(NativeUnsafe))
	if s.Invocations != 2 {
		t.Errorf("reloaded graft should share the accumulator: %d invocations, want 2", s.Invocations)
	}
}

// TestInstrumentedErrorFlushesCount pins the error path of the batched
// count under the default 1-in-256 sampling: every trapping call lands
// in the invocation count with its trap, so the key is exported, its
// windowed trap ratio is exactly 1, and the count stays exact across a
// sampling point.
func TestInstrumentedErrorFlushesCount(t *testing.T) {
	telemetry.ResetMetrics()
	telemetry.SetEnabled(true)
	t.Cleanup(func() {
		telemetry.SetEnabled(false)
		telemetry.ResetMetrics()
	})
	g, err := Load(NativeSafe, instSrc, mem.New(1<<16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, want := range []int{10, 300} {
		for ; calls < want; calls++ {
			if _, err := g.Invoke("oob"); err == nil {
				t.Fatal("expected an out-of-bounds trap")
			}
		}
		s := metricsFor(t, "inst-test", string(NativeSafe))
		if s.Invocations != uint64(want) || s.Traps[mem.TrapOOBLoad.String()] != uint64(want) {
			t.Errorf("after %d trapping calls: invocations %d, traps %v", want, s.Invocations, s.Traps)
		}
		w := telemetry.Register("inst-test", string(NativeSafe)).Window(time.Hour)
		if w.TrapRatio != 1 {
			t.Errorf("after %d trapping calls: windowed trap ratio %v, want 1", want, w.TrapRatio)
		}
	}
}
