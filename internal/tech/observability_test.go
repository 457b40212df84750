package tech

import (
	"errors"
	"testing"

	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

func withSpans(t *testing.T) *telemetry.SpanTrace {
	t.Helper()
	st := telemetry.EnableSpans(1 << 10)
	if err := telemetry.SetSpanSampleEvery(1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		telemetry.DisableSpans()
		_ = telemetry.SetSpanSampleEvery(64)
	})
	return st
}

// A handle call through an instrumented engine with the caller's span
// context must record an "engine" child under that span, carrying the
// fuel the call charged, and still produce the right result.
func TestInstrumentedHandleSpan(t *testing.T) {
	withTelemetry(t)
	st := withSpans(t)

	g, err := Load(Bytecode, instSrc, mem.New(memSize), Options{Fuel: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	root := telemetry.RootSpan("test:root", "test")
	if !root.Active() {
		t.Fatal("root span inactive")
	}
	v, fuel, err := Resolve(g, "main")(root.Ctx(), []uint32{10})
	if err != nil {
		t.Fatal(err)
	}
	if v != 45 {
		t.Fatalf("got %d, want 45", v)
	}
	root.End(0, 0, 0)

	var engine *telemetry.SpanRecord
	for _, s := range st.Spans() {
		if s.Cat == "engine" {
			s := s
			engine = &s
		}
	}
	if engine == nil {
		t.Fatalf("no engine span recorded: %+v", st.Spans())
	}
	if engine.Parent != root.ID() {
		t.Errorf("engine span parent = %d, want root %d", engine.Parent, root.ID())
	}
	if engine.Name != "engine:bytecode" {
		t.Errorf("engine span name = %q", engine.Name)
	}
	if engine.A == 0 || engine.A != uint64(fuel) {
		t.Errorf("engine span fuel = %d, want the handle's %d (> 0)", engine.A, fuel)
	}
}

// An inactive context must run the call with no span recorded.
func TestHandleSpanInactiveContext(t *testing.T) {
	withTelemetry(t)
	st := withSpans(t)

	g, err := Load(Bytecode, instSrc, mem.New(memSize), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resolve(g, "main")(telemetry.SpanCtx{}, []uint32{10}); err != nil {
		t.Fatal(err)
	}
	for _, s := range st.Spans() {
		if s.Cat == "engine" {
			t.Fatalf("engine span recorded under inactive context: %+v", s)
		}
	}
}

// A quarantined pair is denied at Load and, for live wrappers, at the
// next sampling point; lifting the quarantine restores service.
func TestQuarantineDeniesDispatch(t *testing.T) {
	withTelemetry(t)
	t.Cleanup(telemetry.ClearQuarantines)

	g, err := Load(Bytecode, instSrc, mem.New(memSize), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Invoke("main", 5); err != nil {
		t.Fatal(err)
	}

	telemetry.Register(instSrc.Name, string(Bytecode)).Quarantine()

	// Load-time denial.
	if _, err := Load(Bytecode, instSrc, mem.New(memSize), Options{}); !errors.Is(err, telemetry.ErrQuarantined) {
		t.Fatalf("Load of quarantined pair: %v", err)
	}
	// Live-wrapper denial: with sample interval 1 every call is a
	// sampling point, so the cached verdict refreshes immediately.
	if _, err := g.Invoke("main", 5); err == nil {
		// First call may still run (verdict refreshes at the sampling
		// point it passes through); the next must be denied.
		if _, err2 := g.Invoke("main", 5); !errors.Is(err2, telemetry.ErrQuarantined) {
			t.Fatalf("live wrapper not denied after quarantine: %v", err2)
		}
	}

	// Resolved handles share the denial.
	call := Resolve(g, "main")
	if _, _, err := call(telemetry.SpanCtx{}, []uint32{5}); err == nil {
		if _, _, err2 := call(telemetry.SpanCtx{}, []uint32{5}); !errors.Is(err2, telemetry.ErrQuarantined) {
			t.Fatalf("direct path not denied after quarantine: %v", err2)
		}
	}

	telemetry.ClearQuarantines()
	// Denial is cached until the next sampling point; one call may fail
	// before service resumes.
	var v uint32
	for i := 0; i < 3; i++ {
		if v, err = g.Invoke("main", 10); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("service not restored after ClearQuarantines: %v", err)
	}
	if v != 45 {
		t.Fatalf("got %d, want 45", v)
	}
	if _, err := Load(Bytecode, instSrc, mem.New(memSize), Options{}); err != nil {
		t.Fatalf("Load after ClearQuarantines: %v", err)
	}
}
