package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The benchmark's self-test, at tiny scale: every workload runs on two
// seeds, untraced and traced; every metric BENCHMARK.json declares is
// emitted with its unit; the oracles pass; and a deliberately corrupted
// expected verdict is caught. Run it from this directory with go test.

var workloads = []string{"fault-path", "write-path", "rx-churn"}

// testSeconds is long enough for every tenant to be served in each
// measured stretch, also under the race detector: a write-path round of
// five 64 KB writes takes tens of milliseconds, ten times that with -race.
func testSeconds(wl string) float64 {
	if wl == "write-path" {
		return 3
	}
	return 0.4
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (e2e, layers []declaredMetric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declaredMetric        `json:"end_to_end"`
		PerLayer  []declaredMetric        `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for i := range names {
		if names[i] != workloads[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
		}
	}
	return doc.EndToEnd, doc.PerLayer
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := readBenchmarkJSON(t)
	for _, tc := range []struct {
		name     string
		declared []declaredMetric
		emitted  []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layers, perLayer}} {
		if len(tc.declared) != len(tc.emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", tc.name, len(tc.declared), len(tc.emitted))
			continue
		}
		for i, d := range tc.declared {
			if e := tc.emitted[i]; d.Name != e.name || d.Unit != e.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)", tc.name, i, d.Name, d.Unit, e.name, e.unit)
			}
		}
	}
}

// layerRuns lists, per workload, per-layer metrics that must be nonzero
// because that workload runs the layer.
var layerRuns = map[string][]string{
	"fault-path": {"kernel.pager.self_ns", "kernel.pager.fault_ratio", "grafts.hotlist.self_ns", "grafts.evict.self_ns",
		"tech.graft.self_ns.domain", "tech.load_ms.domain"},
	"write-path": {"grafts.md5.self_ns", "grafts.ldmap.self_ns", "kernel.stream.self_ns", "ld.self_ns"},
	"rx-churn": {"netsim.demux.self_ns", "netsim.frames_per_crossing", "netsim.fastpath_share",
		"lifecycle.stage_ms", "lifecycle.promote_us", "lifecycle.rollback_us", "lifecycle.rejects",
		"telemetry.scrape_ms", "telemetry.series", "telemetry.registered", "telemetry.watchdog_us",
		"tech.graft.self_ns.domain", "tech.load_ms.domain"},
}

// everywhere lists per-layer metrics every workload must report nonzero.
var everywhere = []string{
	"lifecycle.slot.self_ns", "lifecycle.carrier.self_ns", "upcall.crossing_ns",
	"tech.graft.self_ns.c", "tech.graft.self_ns.codegen", "tech.graft.self_ns.aot",
	"tech.graft.self_ns.bytecode", "tech.graft.self_ns.upcall",
	"tech.graft.calls_per_req.c", "tech.graft.calls_per_req.upcall",
	"tech.load_ms.c", "tech.load_ms.codegen", "tech.load_ms.aot", "tech.load_ms.bytecode", "tech.load_ms.upcall",
	"trace.overhead", "trace.unattributed_share", "trace.request_ns",
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, seed := range []uint64{1, 2} {
			for _, traced := range []bool{false, true} {
				cfg := config{workload: wl, seed: seed, seconds: testSeconds(wl), trace: traced}
				if traced {
					cfg.spansOut = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				rep, err := run(cfg)
				if err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", wl, seed, traced, err)
				}
				if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
					t.Errorf("%s seed %d traced=%v: correct=%v failed=%d attempted=%d",
						wl, seed, traced, rep.correct, rep.failed, rep.attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				res := rep.result(traced)
				if len(res.Metrics) != len(defs) {
					t.Errorf("%s traced=%v: %d metrics emitted, %d declared", wl, traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					mv, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s traced=%v: metric %s missing", wl, traced, d.name)
					case mv.Unit != d.unit:
						t.Errorf("%s traced=%v: metric %s has unit %q, want %q", wl, traced, d.name, mv.Unit, d.unit)
					case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || mv.Value < 0:
						t.Errorf("%s traced=%v: metric %s = %v", wl, traced, d.name, mv.Value)
					case !traced && mv.Value == 0:
						t.Errorf("%s: end-to-end metric %s is 0", wl, d.name)
					}
				}
				if traced {
					if fi, err := os.Stat(cfg.spansOut); err != nil || fi.Size() == 0 {
						t.Errorf("%s: traced run wrote no spans to %s (%v)", wl, cfg.spansOut, err)
					}
					for _, name := range append(append([]string(nil), everywhere...), layerRuns[wl]...) {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s seed %d: per-layer metric %s = %v, want > 0", wl, seed, name, res.Metrics[name].Value)
						}
					}
				}
			}
		}
	}
}

func TestCorruptedVerdictIsCaught(t *testing.T) {
	for _, wl := range workloads {
		rep, err := run(config{workload: wl, seed: 1, seconds: testSeconds(wl), corrupt: true})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if rep.correct || rep.failed == 0 {
			t.Errorf("%s: a corrupted expected verdict went unnoticed (correct=%v failed=%d)", wl, rep.correct, rep.failed)
		}
	}
}
