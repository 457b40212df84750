package bench

import (
	"fmt"
	"time"

	"graftlab/internal/grafts"
	"graftlab/internal/kernel"
	"graftlab/internal/lmb"
	"graftlab/internal/mem"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/upcall"
	"graftlab/internal/vclock"
)

// EvictRow is one technology's line in Table 2.
type EvictRow struct {
	Tech      string
	PaperName string
	Per       time.Duration // mean time per eviction search
	RelStd    float64
	// N is the measurement-run count behind this row (warmup excluded).
	N int `json:"n,omitempty"`
	// Tail latency across the per-run means (nearest rank over Runs
	// samples): the jitter a hook point sees, not just the center.
	P50        time.Duration `json:"p50"`
	P95        time.Duration `json:"p95"`
	P99        time.Duration `json:"p99"`
	Normalized float64       // Per / native-unsafe Per
	BreakEven  float64       // simulated (1990s, disk-backed) fault time / Per
	// BreakEvenModern divides this machine's measured minor-fault time
	// instead — the era comparison EXPERIMENTS.md discusses: against a
	// modern fault, even compiled grafts barely clear the paper's
	// once-per-781-invocations bar.
	BreakEvenModern float64
}

// EvictResult reproduces Table 2.
type EvictResult struct {
	HotListLen  int
	FaultTime   time.Duration // denominator of the 1990s break-even column
	ModernFault time.Duration // measured on this machine (0 if unavailable)
	Rows        []EvictRow
}

// evictHarness prepares the fixed scenario the paper times: a resident
// set whose LRU candidate is NOT on the application's 64-entry hot list,
// so each invocation performs exactly one full hot-list search — "the
// mean time required to search a 64 element hot list" (Table 2 caption).
type evictHarness struct {
	call     tech.Handle
	argBuf   [1]uint32
	headAddr uint32
	wantPage uint32
	closer   func()
}

func newEvictHarness(cfg Config, id tech.ID, useUpcall bool, upcallLatency time.Duration) (*evictHarness, error) {
	m := mem.New(grafts.PEMemSize)
	g, err := tech.Load(id, grafts.PageEvict, m, tech.Options{VM: cfg.VM})
	if err != nil {
		return nil, err
	}
	if !useUpcall {
		return newEvictHarnessWith(cfg, g, m)
	}
	d := upcall.NewDomain(g, upcallLatency)
	h, err := newEvictHarnessWith(cfg, d, m)
	if err != nil {
		d.Close()
		return nil, err
	}
	h.closer = d.Close
	return h, nil
}

// newEvictHarnessWith builds the Table 2 scenario around an already
// loaded graft (so the caller controls load options like fuel): resident
// pages 100..100+Frames, none of them hot, and a hot list of distinct
// non-resident pages.
func newEvictHarnessWith(cfg Config, g tech.Graft, m *mem.Memory) (*evictHarness, error) {
	pager, err := kernel.NewPager(kernel.PagerConfig{
		Frames: cfg.Frames, Mem: m, NodeBase: grafts.PELRUNodeBase,
	}, &vclock.Clock{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Frames; i++ {
		if _, err := pager.Access(kernel.PageID(100 + i)); err != nil {
			return nil, err
		}
	}
	hotPages := make([]kernel.PageID, cfg.HotListLen)
	for i := range hotPages {
		hotPages[i] = kernel.PageID(500000 + i)
	}
	grafts.NewHotList(m).Set(hotPages)
	return &evictHarness{
		call:     tech.Resolve(g, "evict"),
		headAddr: pager.HeadAddr(),
		wantPage: 100, // LRU head: first page accessed
		closer:   func() {},
	}, nil
}

// invoke runs one eviction decision and validates the result. It calls
// through the resolved entry, as a kernel hook point would.
func (h *evictHarness) invoke() error {
	h.argBuf[0] = h.headAddr
	v, _, err := h.call(telemetry.SpanCtx{}, h.argBuf[:])
	if err != nil {
		return err
	}
	if v != h.wantPage {
		return fmt.Errorf("bench: evict returned %d, want %d", v, h.wantPage)
	}
	return nil
}

// evictTechs are Table 2's columns, in paper order plus this repo's
// additions (upcall row and ablation variants appear via dedicated rows).
var evictTechs = []tech.ID{
	tech.CompiledUnsafe, tech.Bytecode, tech.AOT, tech.CompiledSafe, tech.CompiledSFI,
	tech.Script, tech.NativeUnsafe, tech.Domain,
}

// RunEviction regenerates Table 2.
func RunEviction(cfg Config) (*EvictResult, error) {
	res := &EvictResult{HotListLen: cfg.HotListLen, FaultTime: cfg.SimulatedFaultTime()}
	if pf, err := lmb.MeasurePageFault(min(cfg.FaultPages, 1024)); err == nil {
		res.ModernFault = pf.PerFault
	}
	var base time.Duration

	measure := func(name, paper string, h *evictHarness, iters int) error {
		defer h.closer()
		// Within-run ramp: long enough to reach steady CPU frequency and
		// warm caches, or the first-measured technology is unfairly
		// penalized. Run-level warmup (cfg.WarmupRuns, discarded below)
		// then covers the allocator/branch-predictor state a whole run
		// perturbs.
		warm := iters / 10
		if warm < 64 {
			warm = 64
		}
		deadline := time.Now().Add(20 * time.Millisecond)
		for i := 0; i < warm || time.Now().Before(deadline); i++ {
			if err := h.invoke(); err != nil {
				return err
			}
			if i > 1<<22 {
				break
			}
		}
		s, err := measureSeries(cfg.EffectiveWarmup(), cfg.Runs, func() (time.Duration, error) {
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if err := h.invoke(); err != nil {
					return 0, err
				}
			}
			return time.Since(t0) / time.Duration(iters), nil
		})
		if err != nil {
			return err
		}
		row := EvictRow{
			Tech: name, PaperName: paper, Per: s.Mean, RelStd: s.RelStd, N: s.N,
			P50: s.P50, P95: s.P95, P99: s.P99,
		}
		if base == 0 {
			base = s.Mean
		}
		row.Normalized = float64(s.Mean) / float64(base)
		if s.Mean > 0 {
			row.BreakEven = float64(res.FaultTime) / float64(s.Mean)
			if res.ModernFault > 0 {
				row.BreakEvenModern = float64(res.ModernFault) / float64(s.Mean)
			}
		}
		res.Rows = append(res.Rows, row)
		return nil
	}

	for _, id := range evictTechs {
		iters := cfg.EvictIters
		if id == tech.Script {
			// The script class is ~1000x slower; scale the inner loop so
			// a run stays bounded while per-invocation cost is exact.
			iters = max(cfg.EvictIters/1000, 20)
		}
		if id == tech.Bytecode {
			iters = max(cfg.EvictIters/10, 100)
		}
		h, err := newEvictHarness(cfg, id, false, 0)
		if err != nil {
			return nil, fmt.Errorf("eviction %s: %w", id, err)
		}
		if err := measure(string(id), tech.PaperName(id), h, iters); err != nil {
			return nil, fmt.Errorf("eviction %s: %w", id, err)
		}
	}
	// The user-level-server row: the same compiled graft behind a real
	// protection-domain crossing.
	h, err := newEvictHarness(cfg, tech.CompiledUnsafe, true, 0)
	if err != nil {
		return nil, err
	}
	if err := measure("upcall-server", "C in user-level server", h, max(cfg.EvictIters/10, 100)); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the paper's Table 2 shape.
func (r *EvictResult) Table() *stats.Table {
	t := &stats.Table{
		Title:  "Table 2: VM Page Eviction",
		Header: []string{"technology", "stands in for", "raw/eviction", "normalized", "B/E (90s disk)", "B/E (modern)"},
		Caption: fmt.Sprintf(
			"Mean time to search a %d-entry hot list per eviction. Break-even = fault\n"+
				"time / graft time: evictions the graft may run per fault saved; the 90s\n"+
				"column uses the modeled disk-backed fault (%s), the modern column this\n"+
				"machine's measured minor fault (%s). The paper's application profits at\n"+
				"break-even > 781. Paper (Solaris): C 4.5µs/1.0/1533, Java 141µs/31.3/49,\n"+
				"Modula-3 6.3µs/1.4/1095, Omniware 6.3µs/1.4/1095, Tcl ~40ms (4 orders).",
			r.HotListLen, stats.FormatDuration(r.FaultTime), stats.FormatDuration(r.ModernFault)),
	}
	for _, row := range r.Rows {
		modern := "n/a"
		if row.BreakEvenModern > 0 {
			modern = stats.Count(row.BreakEvenModern)
		}
		t.AddRow(row.Tech, row.PaperName,
			fmt.Sprintf("%s(%.1f%%)", stats.FormatDuration(row.Per), row.RelStd*100),
			stats.Ratio(row.Normalized),
			stats.Count(row.BreakEven),
			modern)
	}
	return t
}
