package telemetry

import (
	"testing"
	"time"
)

// Decomposes the per-invocation instrumentation cost so the <=2% budget
// claim in the package doc can be re-verified piece by piece.
func BenchmarkHotPath(b *testing.B) {
	m := Register("bench", "compiled-unsafe")
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Count(0)
		}
	})
	b.Run("count+sampled", func(b *testing.B) {
		mask := m.Mask()
		for i := 0; i < b.N; i++ {
			m.Count(0)
			if uint64(i+1)&mask == 0 {
				m.RecordLatency(time.Nanosecond)
			}
		}
	})
	b.Run("addfuel-zero", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.AddFuel(0)
		}
	})
	ResetMetrics()
}

// Prices the profiler and span-tracer pieces the same way: the
// disabled paths must be branch-cheap (they sit on engine hot loops
// and kernel emit points), the enabled paths amortize against their
// sampling intervals.
func BenchmarkObservabilityHotPath(b *testing.B) {
	b.Run("rootspan-disabled", func(b *testing.B) {
		DisableSpans()
		for i := 0; i < b.N; i++ {
			sp := RootSpan("bench", "bench")
			if sp.Active() {
				b.Fatal("span active while disabled")
			}
		}
	})
	b.Run("rootspan-sampled-64", func(b *testing.B) {
		EnableSpans(1 << 12)
		defer DisableSpans()
		for i := 0; i < b.N; i++ {
			sp := RootSpan("bench", "bench")
			if sp.Active() {
				sp.End(0, 0)
			}
		}
	})
	b.Run("root+child+end-every", func(b *testing.B) {
		EnableSpans(1 << 12)
		if err := SetSpanSampleEvery(1); err != nil {
			b.Fatal(err)
		}
		defer func() {
			DisableSpans()
			_ = SetSpanSampleEvery(64)
		}()
		for i := 0; i < b.N; i++ {
			sp := RootSpan("bench", "bench")
			cs := ChildSpan(sp.Ctx(), "child", "bench")
			cs.End(0, 0)
			sp.End(0, 0)
		}
	})
	b.Run("profscope-hit", func(b *testing.B) {
		p, err := NewProfile(DefaultProfileInterval)
		if err != nil {
			b.Fatal(err)
		}
		s := p.Scope("bench", "compiled-unsafe")
		for i := 0; i < b.N; i++ {
			s.Hit("evict", 7, DefaultProfileInterval)
		}
	})
	b.Run("window-record", func(b *testing.B) {
		// Full cost of landing one flush in the current window bucket:
		// one coarse clock read, the epoch check, one atomic add. This
		// is paid once per sampling interval, not per invocation.
		m := Register("bench-win", "compiled-unsafe")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.win.addInvocations(1)
		}
		ResetMetrics()
	})
	b.Run("window-flush-amortized-256", func(b *testing.B) {
		// What an instrumented wrapper actually pays per invocation for
		// the whole batched flush (cumulative + window) at the default
		// 1-in-256 sampling interval.
		m := Register("bench-win", "compiled-unsafe")
		var local uint64
		mask := m.Mask()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			local++
			if local&mask == 0 {
				m.AddInvocations(mask + 1)
			}
		}
		ResetMetrics()
	})
	b.Run("window-snapshot", func(b *testing.B) {
		// The reader side: one windowed snapshot over the default export
		// window. Runs on scrape/stream paths, never on the hot path —
		// priced to show it stays microseconds.
		m := Register("bench-win", "compiled-unsafe")
		m.AddInvocations(1000)
		for i := 0; i < 100; i++ {
			m.RecordLatency(time.Duration(i) * time.Microsecond)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := m.Window(DefaultExportWindow)
			if s.Invocations == 0 {
				b.Fatal("empty snapshot")
			}
		}
		ResetMetrics()
	})
	b.Run("profiler-tick-amortized", func(b *testing.B) {
		// What a metered engine actually pays per fuel charge: a
		// countdown, with one Hit per DefaultProfileInterval units.
		p, err := NewProfile(DefaultProfileInterval)
		if err != nil {
			b.Fatal(err)
		}
		s := p.Scope("bench", "bytecode")
		tick, every := int64(DefaultProfileInterval), int64(DefaultProfileInterval)
		for i := 0; i < b.N; i++ {
			tick -= 8 // typical block cost
			if tick <= 0 {
				tick += every
				s.Hit("md5_block", 42, every)
			}
		}
	})
}
