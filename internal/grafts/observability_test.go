package grafts

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"graftlab/internal/kernel"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/upcall"
	"graftlab/internal/vclock"
	"graftlab/internal/workload"
)

// TestMD5ProfileLineAttribution is the acceptance bar for the sampling
// profiler: on the MD5 graft — the heaviest bytecode workload — at
// least 95% of the sampled fuel must map back to source lines through
// the compile-time line table.
func TestMD5ProfileLineAttribution(t *testing.T) {
	if _, err := telemetry.EnableProfiler(256); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(telemetry.DisableProfiler)

	g, err := tech.Load(tech.Bytecode, MD5, mem.New(MDMemSize), tech.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMD5Graft(g)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<14)
	workload.FillPattern(data, 5)
	if _, err := h.Write(data); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Sum(); err != nil {
		t.Fatal(err)
	}

	p := telemetry.CurrentProfile()
	samples := p.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples collected from the MD5 run")
	}
	var total, lined int64
	for _, s := range samples {
		if s.Graft != MD5.Name || s.Tech != string(tech.Bytecode) {
			continue
		}
		total += s.Fuel
		if s.Line > 0 {
			lined += s.Fuel
		}
	}
	if total == 0 {
		t.Fatal("no fuel attributed to the MD5 pair")
	}
	if share := float64(lined) / float64(total); share < 0.95 {
		t.Errorf("only %.1f%% of MD5 fuel maps to source lines, want >=95%%", 100*share)
	}
}

// TestNestedSpansAcrossStack drives the full Table-2-plus-pool stack —
// Pager faults consulting a GraftEvictionPolicy whose engine is checked
// out of a tech.Pool and lives behind an upcall domain — with span
// tracing on, and asserts one fault exports as the nested causal chain
// fault -> evict -> policy -> engine -> upcall, all on one track, and
// that the export is loadable Chrome trace-event JSON.
func TestNestedSpansAcrossStack(t *testing.T) {
	telemetry.SetEnabled(true)
	st := telemetry.EnableSpans(1 << 10)
	if err := telemetry.SetSpanSampleEvery(1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		telemetry.DisableSpans()
		_ = telemetry.SetSpanSampleEvery(64)
		telemetry.SetEnabled(false)
		telemetry.ResetMetrics()
	})

	pool, err := tech.NewPool(tech.NativeSafe, PageEvict, tech.Options{}, tech.PoolConfig{
		MemSize: PEMemSize,
		Setup: func(m *mem.Memory) error {
			NewHotList(m).Set([]kernel.PageID{10, 11})
			return nil
		},
		Wrap: upcall.PoolWrapper(10 * time.Microsecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	g, release, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)

	pg, err := kernel.NewPager(kernel.PagerConfig{
		Frames: 3, Mem: g.Memory(), NodeBase: PELRUNodeBase,
	}, &vclock.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	pg.SetPolicy(NewGraftEvictionPolicy(g))
	for _, p := range []kernel.PageID{10, 11, 12, 13} {
		if _, err := pg.Access(p); err != nil {
			t.Fatal(err)
		}
	}
	if pg.Resident(12) {
		t.Fatal("graft did not steer the eviction to 12")
	}

	byID := map[telemetry.SpanID]telemetry.SpanRecord{}
	byCat := map[string][]telemetry.SpanRecord{}
	for _, s := range st.Spans() {
		byID[s.ID] = s
		byCat[s.Cat] = append(byCat[s.Cat], s)
	}
	if len(byCat["upcall"]) == 0 {
		t.Fatalf("no upcall span recorded; cats: %v", keys(byCat))
	}
	// Walk one upcall span back to its root and require the full chain.
	up := byCat["upcall"][0]
	eng, ok := byID[up.Parent]
	if !ok || eng.Cat != "engine" {
		t.Fatalf("upcall's parent is %+v, want an engine span", eng)
	}
	pol, ok := byID[eng.Parent]
	if !ok || pol.Cat != "policy" || pol.Name != "policy:evict" {
		t.Fatalf("engine's parent is %+v, want policy:evict", pol)
	}
	ev, ok := byID[pol.Parent]
	if !ok || ev.Cat != "kernel" || ev.Name != "kernel:evict" || ev.C != kernel.EvictOverride || ev.B != 12 {
		t.Fatalf("policy's parent is %+v, want the kernel:evict override choosing page 12", ev)
	}
	root, ok := byID[ev.Parent]
	if !ok || root.Name != "kernel:fault" || root.Parent != 0 || root.A != 13 {
		t.Fatalf("eviction's parent is %+v, want the kernel:fault root for page 13", root)
	}
	for _, s := range []telemetry.SpanRecord{up, eng, pol, ev} {
		if s.Track != root.Track {
			t.Errorf("span %q on track %d, root on %d", s.Name, s.Track, root.Track)
		}
	}

	var buf bytes.Buffer
	if err := st.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("span export is not valid Chrome trace JSON: %v", err)
	}
	if len(trace.TraceEvents) < 5 {
		t.Fatalf("trace has %d events, want the full chain", len(trace.TraceEvents))
	}
}

func keys(m map[string][]telemetry.SpanRecord) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
