package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"graftlab/internal/telemetry"
)

// TestEncodeRoundTrip pins the report schema and the DurationsNote
// convention: a report encodes as note, host, config, cells and
// telemetry; every duration in a cell is a plain integer nanosecond
// count; and a decoded report gates clean against the original.
func TestEncodeRoundTrip(t *testing.T) {
	r := &Report{
		GeneratedNote: "quick-scale",
		Cells: []Cell{
			{Experiment: "table2", Metric: "hot_list_len", Unit: "count", Value: 64},
			{Experiment: "table2", Row: "compiled-unsafe", Metric: "per_eviction_ns", Unit: "ns",
				Value: 1500, N: 5, CV: 0.02, P50: 1400, P95: 2100, P99: 2500},
			{Experiment: "scale", Metric: "service_time_ns", Unit: "ns", Value: float64(200 * time.Microsecond)},
			{Experiment: "scale", Row: "md5/compiled-unsafe w=4", Metric: "ops_per_sec", Unit: "ops/s",
				Value: 3500.5, P50: 210000, P95: 400000, P99: 800000},
		},
		Telemetry: []telemetry.GraftSnapshot{{
			Graft: "page-evict", Tech: "compiled-unsafe",
			Invocations: 42, LatencyP50: time.Microsecond,
		}},
	}
	data, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("Encode output is not valid JSON: %v", err)
	}
	for key := range m {
		switch key {
		case "note", "cells", "telemetry":
		default:
			t.Errorf("unexpected top-level key %q", key)
		}
	}
	cell := m["cells"].([]any)[1].(map[string]any)
	for field, want := range map[string]any{
		"experiment": "table2", "row": "compiled-unsafe", "metric": "per_eviction_ns", "unit": "ns",
		"value": 1500.0, "n": 5.0, "cv": 0.02, "p50": 1400.0, "p95": 2100.0, "p99": 2500.0,
	} {
		if v, ok := cell[field]; !ok || v != want {
			t.Errorf("cell %s = %v, want %v (%s)", field, v, want, DurationsNote)
		}
	}
	if _, ok := m["cells"].([]any)[0].(map[string]any)["row"]; ok {
		t.Error("scalar cell encodes an empty row")
	}
	tel := m["telemetry"].([]any)[0].(map[string]any)
	if tel["invocations"].(float64) != 42 || tel["latency_p50"].(float64) != 1000 {
		t.Errorf("telemetry snapshot mangled: %v", tel)
	}

	// A decoded report must reconstruct the same cells — the contract
	// -check-against depends on, decoding strictly, telemetry included.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var back Report
	if err := dec.Decode(&back); err != nil {
		t.Fatal(err)
	}
	cmp := CompareReports(r, &back, CompareOptions{Tolerance: 0.01})
	if regs := cmp.Regressions(); len(regs) != 0 || cmp.Compared() != 2 {
		t.Fatalf("round-tripped report does not compare clean: %d metrics, %v", cmp.Compared(), regs)
	}
}
