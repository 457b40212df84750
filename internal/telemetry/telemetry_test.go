package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"graftlab/internal/mem"
)

func TestEnabledFlag(t *testing.T) {
	defer SetEnabled(false)
	if !Disabled() {
		t.Fatal("telemetry should start disabled")
	}
	SetEnabled(true)
	if Disabled() || !Enabled() {
		t.Fatal("SetEnabled(true) did not take")
	}
}

func TestRegisterDedup(t *testing.T) {
	defer ResetMetrics()
	a := Register("md5", "bytecode")
	b := Register("md5", "bytecode")
	if a != b {
		t.Fatal("Register should return the same accumulator for the same pair")
	}
	if c := Register("md5", "script"); c == a {
		t.Fatal("different technology must get its own accumulator")
	}
	if got := len(Metrics()); got != 2 {
		t.Fatalf("Metrics() = %d entries, want 2", got)
	}
}

func TestGraftMetricsCounters(t *testing.T) {
	defer ResetMetrics()
	m := Register("pageevict", "compiled-unsafe")
	for i := 0; i < 10; i++ {
		m.Count(0)
	}
	m.AddFuel(100)
	m.AddFuel(50)
	m.RecordError(&mem.Trap{Kind: mem.TrapFuel})
	m.RecordError(&mem.Trap{Kind: mem.TrapOOBLoad})
	m.RecordError(fmt.Errorf("plain failure"))
	m.RecordLatency(1500 * time.Nanosecond)

	if m.Invocations() != 10 {
		t.Errorf("Invocations = %d, want 10", m.Invocations())
	}
	if m.FuelConsumed() != 150 {
		t.Errorf("FuelConsumed = %d, want 150", m.FuelConsumed())
	}
	if m.FuelPreemptions() != 1 {
		t.Errorf("FuelPreemptions = %d, want 1", m.FuelPreemptions())
	}
	if m.TrapCount(mem.TrapOOBLoad) != 1 {
		t.Errorf("TrapCount(OOBLoad) = %d, want 1", m.TrapCount(mem.TrapOOBLoad))
	}
	s := m.Snapshot()
	if s.Errors != 1 || s.Traps["fuel exhausted"] != 1 || s.LatencySamples != 1 {
		t.Errorf("snapshot = %+v", s)
	}
	// Snapshots with no invocations are elided from SnapshotAll.
	Register("idle", "script")
	if got := len(SnapshotAll()); got != 1 {
		t.Errorf("SnapshotAll = %d entries, want 1", got)
	}
}

func TestSampleInterval(t *testing.T) {
	defer ResetMetrics()
	defer SetSampleInterval(defaultSampleInterval)
	SetSampleInterval(1)
	m := Register("all-sampled", "x")
	for i := uint64(1); i <= 5; i++ {
		if i&m.Mask() != 0 {
			t.Fatalf("interval 1 must sample every invocation (n=%d)", i)
		}
	}
	SetSampleInterval(8)
	m2 := Register("one-in-eight", "x")
	n := 0
	for i := uint64(1); i <= 64; i++ {
		if i&m2.Mask() == 0 {
			n++
		}
	}
	if n != 8 {
		t.Errorf("interval 8 sampled %d of 64", n)
	}
	// Non-power-of-two rounds down.
	SetSampleInterval(100)
	if got := sampleMask.Load(); got != 63 {
		t.Errorf("interval 100 -> mask %d, want 63", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	// 1000 samples spread 1..1000µs: quantile estimates must land within
	// the matched power-of-two bucket (factor-2 accuracy bound).
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1000*time.Microsecond {
		t.Errorf("Max = %v", h.Max())
	}
	checks := []struct {
		q     float64
		exact time.Duration
	}{{0.50, 500 * time.Microsecond}, {0.95, 950 * time.Microsecond}, {0.99, 990 * time.Microsecond}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.exact/2 || got > c.exact*2 {
			t.Errorf("Quantile(%v) = %v, want within 2x of %v", c.q, got, c.exact)
		}
	}
	if h.Quantile(1) > h.Max() {
		t.Errorf("Quantile(1) = %v beyond max %v", h.Quantile(1), h.Max())
	}
	if m := h.Mean(); m < 400*time.Microsecond || m > 600*time.Microsecond {
		t.Errorf("Mean = %v, want ~500µs", m)
	}
}

func TestHistogramConstantSamples(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(3 * time.Microsecond)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 2*time.Microsecond || got > 3*time.Microsecond {
			t.Errorf("Quantile(%v) = %v, want within bucket of 3µs", q, got)
		}
	}
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 6; i++ {
		tr.Emit(EvPageFault, uint64(i), 0, 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Overwritten() != 2 {
		t.Fatalf("Overwritten = %d, want 2", tr.Overwritten())
	}
	evs := tr.Events()
	if len(evs) != 4 || evs[0].A != 2 || evs[3].A != 5 {
		t.Fatalf("Events = %+v", evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Errorf("seq not monotonic: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if n := tr.CountByKind()["page_fault"]; n != 6 {
		t.Errorf("CountByKind[page_fault] = %d, want 6 (cumulative)", n)
	}
}

func TestTraceJSONL(t *testing.T) {
	tr := NewTrace(16)
	tr.Emit(EvEvictDecision, 100, 105, EvictOverride)
	tr.Emit(EvLDSegment, 7, 112, 16)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 events + footer", len(lines))
	}
	var ev struct {
		Seq  uint64 `json:"seq"`
		T    int64  `json:"t"`
		Kind string `json:"kind"`
		A    uint64 `json:"a"`
		B    uint64 `json:"b"`
		C    uint64 `json:"c"`
	}
	if err := json.Unmarshal(lines[0], &ev); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if ev.Kind != "evict_decision" || ev.A != 100 || ev.B != 105 || ev.C != EvictOverride {
		t.Errorf("decoded event = %+v", ev)
	}
	if ev.T == 0 {
		t.Error("event timestamp missing")
	}
	if err := json.Unmarshal(lines[1], &ev); err != nil || ev.Kind != "ld_segment" {
		t.Errorf("line 1: %v, kind %q", err, ev.Kind)
	}
	var foot struct {
		Footer   bool   `json:"footer"`
		Emitted  uint64 `json:"emitted"`
		Retained int    `json:"retained"`
		Dropped  uint64 `json:"dropped"`
	}
	if err := json.Unmarshal(lines[2], &foot); err != nil {
		t.Fatalf("footer is not valid JSON: %v", err)
	}
	if !foot.Footer || foot.Emitted != 2 || foot.Retained != 2 || foot.Dropped != 0 {
		t.Errorf("footer = %+v, want footer:true emitted:2 retained:2 dropped:0", foot)
	}
}

func TestTraceJSONLFooterDropped(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Emit(EvPageFault, uint64(i), 0, 0)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var foot struct {
		Footer   bool   `json:"footer"`
		Emitted  uint64 `json:"emitted"`
		Retained int    `json:"retained"`
		Dropped  uint64 `json:"dropped"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &foot); err != nil {
		t.Fatalf("footer: %v", err)
	}
	if !foot.Footer || foot.Emitted != 10 || foot.Retained != 4 || foot.Dropped != 6 {
		t.Errorf("footer = %+v, want emitted:10 retained:4 dropped:6", foot)
	}
}

func TestGlobalTraceToggle(t *testing.T) {
	defer DisableTrace()
	DisableTrace()
	Emit(EvSchedPick, 1, 0, 0) // must be a no-op, not a panic
	EnableTrace(8)
	if !TraceEnabled() {
		t.Fatal("EnableTrace did not enable")
	}
	Emit(EvSchedPick, 1, 0, 0)
	if got := CurrentTrace().Len(); got != 1 {
		t.Fatalf("global trace Len = %d, want 1", got)
	}
	DisableTrace()
	Emit(EvSchedPick, 2, 0, 0)
	if got := CurrentTrace().Len(); got != 1 {
		t.Fatalf("disabled trace still recorded: Len = %d", got)
	}
}

// TestConcurrentRecording is the race-detector gate for the atomic
// counters: many goroutines hammer one accumulator and the global trace
// while a reader snapshots concurrently.
func TestConcurrentRecording(t *testing.T) {
	defer ResetMetrics()
	defer DisableTrace()
	EnableTrace(128)
	m := Register("concurrent", "x")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Count(1)
				if uint64(i+1)&m.Mask() == 0 {
					m.RecordLatency(time.Duration(i) * time.Nanosecond)
				}
				if i%100 == 0 {
					m.RecordError(&mem.Trap{Kind: mem.TrapOOBStore})
				}
				Emit(EvPageFault, uint64(i), 0, 0)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = m.Snapshot()
			_ = CurrentTrace().Events()
		}
	}()
	wg.Wait()
	<-done
	if m.Invocations() != workers*per {
		t.Errorf("Invocations = %d, want %d", m.Invocations(), workers*per)
	}
	if m.FuelConsumed() != workers*per {
		t.Errorf("FuelConsumed = %d, want %d", m.FuelConsumed(), workers*per)
	}
	if got := CurrentTrace().CountByKind()["page_fault"]; got != workers*per {
		t.Errorf("trace count = %d, want %d", got, workers*per)
	}
}
