package kernel

import (
	"fmt"
	"testing"
	"time"

	"graftlab/internal/telemetry"
	"graftlab/internal/vclock"
)

// withSpans turns the kernel trace ring on for one test, recording every
// root.
func withSpans(t *testing.T, capacity int) *telemetry.SpanTrace {
	t.Helper()
	st := telemetry.EnableSpans(capacity)
	if err := telemetry.SetSpanSampleEvery(1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		telemetry.DisableSpans()
		_ = telemetry.SetSpanSampleEvery(64)
	})
	return st
}

// spansNamed returns the retained spans called name, oldest first.
func spansNamed(st *telemetry.SpanTrace, name string) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, s := range st.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func TestPagerEmitsTraceEvents(t *testing.T) {
	st := withSpans(t, 1024)
	clock := &vclock.Clock{}
	p, err := NewPager(PagerConfig{Frames: 4, FaultTime: time.Millisecond}, clock)
	if err != nil {
		t.Fatal(err)
	}
	// 8 distinct pages through 4 frames: 8 faults, 4 evictions.
	for pg := PageID(0); pg < 8; pg++ {
		if _, err := p.Access(pg); err != nil {
			t.Fatal(err)
		}
	}
	faults := spansNamed(st, "kernel:fault")
	if len(faults) != 8 {
		t.Fatalf("kernel:fault spans = %d, want 8", len(faults))
	}
	faultOf := map[telemetry.SpanID]telemetry.SpanRecord{}
	for i, f := range faults {
		if f.Parent != 0 || f.A != uint64(i) || f.B >= 4 {
			t.Errorf("fault %d = %+v, want a root carrying page %d and a frame < 4", i, f, i)
		}
		faultOf[f.ID] = f
	}
	evicts := spansNamed(st, "kernel:evict")
	if len(evicts) != 4 {
		t.Fatalf("kernel:evict spans = %d, want 4", len(evicts))
	}
	// No policy installed: every decision is EvictDefault with chosen ==
	// candidate, under the fault of a page that found no free frame.
	for _, e := range evicts {
		parent, ok := faultOf[e.Parent]
		if !ok || parent.A < 4 || e.Track != parent.Track {
			t.Errorf("eviction %+v is not a child of a fault that needed a frame (parent %+v)", e, parent)
		}
		if e.C != EvictDefault || e.A != e.B {
			t.Errorf("policy-less eviction %+v, want default outcome", e)
		}
	}
}

func TestEvictDecisionOutcomeCodes(t *testing.T) {
	st := withSpans(t, 64)
	clock := &vclock.Clock{}
	p, err := NewPager(PagerConfig{Frames: 2, FaultTime: time.Millisecond}, clock)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := []struct {
		policy EvictionPolicyFunc
		want   uint64
	}{
		{func(p *Pager, c PageID) (PageID, error) { return InvalidPage, nil }, EvictAccepted},
		{func(p *Pager, c PageID) (PageID, error) { return PageID(9999), nil }, EvictRejected},
		{func(p *Pager, c PageID) (PageID, error) { return 0, fmt.Errorf("trap") }, EvictErrored},
		{func(p *Pager, c PageID) (PageID, error) {
			for _, r := range p.LRUPages() {
				if r != c {
					return r, nil
				}
			}
			return InvalidPage, nil
		}, EvictOverride},
	}
	next := PageID(0)
	fill := func() {
		for i := 0; i < 2; i++ {
			if _, err := p.Access(next); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	fill()
	for _, tc := range outcomes {
		p.SetPolicy(tc.policy)
		before := len(spansNamed(st, "kernel:evict"))
		if _, err := p.Access(next); err != nil {
			t.Fatal(err)
		}
		next++
		evicts := spansNamed(st, "kernel:evict")
		if len(evicts) != before+1 {
			t.Fatalf("expected exactly one kernel:evict span, got %d", len(evicts)-before)
		}
		last := evicts[len(evicts)-1]
		if last.C != tc.want {
			t.Errorf("outcome = %+v, want code %d", last, tc.want)
		}
		if (last.C == EvictOverride) == (last.A == last.B) {
			t.Errorf("outcome %d with candidate %d and chosen %d", last.C, last.A, last.B)
		}
	}
}

func TestStreamAndSchedEmitTraceEvents(t *testing.T) {
	st := withSpans(t, 256)
	c := NewChain(nil, FilterFunc{FilterName: "id", Fn: func(p []byte) ([]byte, error) { return p, nil }})
	if _, err := c.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	clock := &vclock.Clock{}
	s := NewScheduler(time.Millisecond, clock)
	s.Spawn("a", 0)
	s.Spawn("b", 0)
	s.SetPolicy(SchedPolicyFunc(func(runnable []*Proc) (int, error) {
		return len(runnable) - 1, nil
	}))
	if _, err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	streams, filters := spansNamed(st, "kernel:stream"), spansNamed(st, "filter:id")
	if len(streams) != 1 || len(filters) != 1 {
		t.Fatalf("got %d kernel:stream and %d filter:id spans, want 1 each", len(streams), len(filters))
	}
	if f := filters[0]; f.Parent != streams[0].ID || f.A != 0 || f.B != 100 || f.C != 100 {
		t.Errorf("filter:id = %+v, want filter 0 under kernel:stream with 100 bytes in and out", f)
	}
	scheds := spansNamed(st, "kernel:sched")
	if len(scheds) != 1 || scheds[0].Parent != 0 || scheds[0].B != 1 || scheds[0].C != 1 {
		t.Errorf("kernel:sched = %+v, want one root picking index 1 as a policy override", scheds)
	}
}

func TestTraceDisabledEmitsNothing(t *testing.T) {
	telemetry.EnableSpans(16)
	telemetry.DisableSpans()
	before := telemetry.CurrentSpans().Len()
	clock := &vclock.Clock{}
	p, err := NewPager(PagerConfig{Frames: 1, FaultTime: time.Millisecond}, clock)
	if err != nil {
		t.Fatal(err)
	}
	for pg := PageID(1); pg <= 2; pg++ {
		if _, err := p.Access(pg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewChain(nil).Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(time.Millisecond, clock)
	s.Spawn("a", 0)
	if _, err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.CurrentSpans().Len(); got != before {
		t.Errorf("disabled ring grew from %d to %d spans", before, got)
	}
}

// TestUntracedSitesDoNotAllocate: with the trace ring off, a kernel
// trace site costs an atomic load and nothing else — in particular no
// span name is built for a write nobody samples.
func TestUntracedSitesDoNotAllocate(t *testing.T) {
	telemetry.DisableSpans()
	clock := &vclock.Clock{}
	p, err := NewPager(PagerConfig{Frames: 4, FaultTime: time.Millisecond}, clock)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPolicy(EvictionPolicyFunc(func(*Pager, PageID) (PageID, error) { return InvalidPage, nil }))
	page := PageID(0)
	for ; page < 4; page++ {
		if _, err := p.Access(page); err != nil {
			t.Fatal(err)
		}
	}
	c := NewChain(nil, FilterFunc{FilterName: "id", Fn: func(b []byte) ([]byte, error) { return b, nil }})
	block := make([]byte, 64)
	s := NewScheduler(time.Millisecond, clock)
	s.Spawn("a", 0)
	s.Spawn("b", 0)
	s.SetPolicy(SchedPolicyFunc(func(runnable []*Proc) (int, error) { return len(runnable) - 1, nil }))

	for _, row := range []struct {
		name string
		op   func() error
	}{
		{"evicting fault", func() error {
			page++
			_, err := p.Access(page)
			return err
		}},
		{"one-filter stream write", func() error {
			_, err := c.Write(block)
			return err
		}},
		{"policy scheduler tick", func() error {
			_, err := s.Tick()
			return err
		}},
	} {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := row.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per operation while untraced, want 0", row.name, allocs)
		}
	}
	if st := p.Stats(); st.Evictions < 200 {
		t.Errorf("only %d evictions: the fault row did not evict", st.Evictions)
	}
}
