package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Causal span tracing: the one kernel trace ring. A root span opens at
// a kernel operation (page fault, stream write, LD write, scheduler
// dispatch, a crossing with no parent) and its context — parent span ID
// plus a track for rendering — is threaded down through the eviction
// decision, the policy, the tech instrumentation into the engine and
// across the upcall boundary, so one sampled fault exports as nested
// fault→evict→policy→engine→upcall spans a Chrome trace viewer or
// Perfetto renders as a flame. Each span carries three kind-specific
// operands (A, B, C; see docs/observability.md).
//
// The overhead contract mirrors the rest of the package: with tracing
// off, a root-span site costs one atomic load and a child-span site one
// zero-test of a value already in hand (an inactive context), both
// inlined into the site, so the kernel hot paths stay inside the ≤2%
// budget. With tracing on, only every SetSpanSampleEvery-th root is
// recorded (1 records every kernel operation); children of an unsampled
// root are free.

// SpanID names one recorded span; 0 is "no span".
type SpanID uint64

// SpanCtx is the propagation context handed down a call chain: the
// parent span and the track (Chrome "tid") the trace renders on. The
// zero SpanCtx is inactive and makes every derived span a no-op.
type SpanCtx struct {
	Parent SpanID
	Track  uint64
}

// Active reports whether spans derived from this context record.
func (c SpanCtx) Active() bool { return c.Parent != 0 }

// Span is one open span. The zero Span is inactive: End is a no-op.
type Span struct {
	id     SpanID
	parent SpanID
	track  uint64
	name   string
	cat    string
	start  int64 // ns since process start of recording
}

// Active reports whether this span will record on End.
func (s Span) Active() bool { return s.id != 0 }

// ID returns the span's ID (0 when inactive).
func (s Span) ID() SpanID { return s.id }

// Ctx returns the context children of this span should derive from.
func (s Span) Ctx() SpanCtx {
	if s.id == 0 {
		return SpanCtx{}
	}
	return SpanCtx{Parent: s.id, Track: s.track}
}

// SpanRecord is one completed span as stored in the ring.
type SpanRecord struct {
	ID      SpanID
	Parent  SpanID
	Name    string
	Cat     string
	Track   uint64
	Start   int64 // ns, monotonic within the trace
	Dur     int64 // ns
	A, B, C uint64
}

// SpanTrace is the bounded ring completed spans land in; like a kernel
// trace buffer it overwrites the oldest record when full and reports
// how many were dropped.
type SpanTrace struct {
	mu  sync.Mutex
	buf []SpanRecord
	seq uint64 // total records ever written
}

// NewSpanTrace builds a ring holding up to capacity completed spans.
func NewSpanTrace(capacity int) *SpanTrace {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanTrace{buf: make([]SpanRecord, 0, capacity)}
}

func (st *SpanTrace) record(r SpanRecord) {
	st.mu.Lock()
	if len(st.buf) < cap(st.buf) {
		st.buf = append(st.buf, r)
	} else {
		st.buf[st.seq%uint64(cap(st.buf))] = r
	}
	st.seq++
	st.mu.Unlock()
}

// Len reports how many spans the ring currently holds.
func (st *SpanTrace) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.buf)
}

// Dropped reports how many spans were overwritten by ring wrap.
func (st *SpanTrace) Dropped() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.seq <= uint64(cap(st.buf)) {
		return 0
	}
	return st.seq - uint64(cap(st.buf))
}

// Spans returns the retained spans, oldest first.
func (st *SpanTrace) Spans() []SpanRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SpanRecord, 0, len(st.buf))
	if st.seq > uint64(len(st.buf)) {
		at := st.seq % uint64(len(st.buf))
		out = append(out, st.buf[at:]...)
		out = append(out, st.buf[:at]...)
	} else {
		out = append(out, st.buf...)
	}
	return out
}

// chromeEvent is one Chrome trace-event object ("X" complete events);
// ts/dur are microseconds per the trace-event spec.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	TS   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	PID  uint64          `json:"pid"`
	TID  uint64          `json:"tid"`
	Args chromeEventArgs `json:"args"`
}

type chromeEventArgs struct {
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	A      uint64 `json:"a"`
	B      uint64 `json:"b"`
	C      uint64 `json:"c"`
}

// chromeTrace is the JSON object format Perfetto and chrome://tracing
// load; DisplayTimeUnit only affects the UI's default zoom.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Dropped         uint64        `json:"droppedSpans,omitempty"`
}

// WriteChromeTrace exports the retained spans as Chrome trace-event
// JSON (the "JSON object format": a traceEvents array of ph:"X"
// complete events). Each span's causal links ride in args.span /
// args.parent; nesting in the viewer comes from time containment on
// the span's track.
func (st *SpanTrace) WriteChromeTrace(w io.Writer) error {
	spans := st.Spans()
	ct := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(spans)),
		DisplayTimeUnit: "ns",
		Dropped:         st.Dropped(),
	}
	for _, s := range spans {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			PID:  1,
			TID:  s.Track,
			Args: chromeEventArgs{Span: uint64(s.ID), Parent: uint64(s.Parent), A: s.A, B: s.B, C: s.C},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}

var (
	spansOn   atomic.Bool
	spanTrace atomic.Pointer[SpanTrace]
	spanSeq   atomic.Uint64 // span ID allocator; IDs are never 0
	spanRoots atomic.Uint64 // root-site counter for sampling
	spanEvery atomic.Uint64 // record every N-th root

	// spanEpoch anchors span timestamps so a trace starts near 0 —
	// time.Now() deltas against one base keep the math monotonic-clock
	// backed and the exported microseconds small.
	spanEpoch     time.Time
	spanEpochOnce sync.Once
)

const defaultSpanSampleEvery = 64

func init() { spanEvery.Store(defaultSpanSampleEvery) }

func spanNow() int64 {
	spanEpochOnce.Do(func() { spanEpoch = time.Now() })
	return int64(time.Since(spanEpoch))
}

// EnableSpans installs a fresh ring of the given capacity and turns
// root-span sampling on.
func EnableSpans(capacity int) *SpanTrace {
	st := NewSpanTrace(capacity)
	spanTrace.Store(st)
	spansOn.Store(true)
	return st
}

// DisableSpans turns span recording off; the current ring stays
// readable via CurrentSpans.
func DisableSpans() { spansOn.Store(false) }

// CurrentSpans returns the installed ring, or nil.
func CurrentSpans() *SpanTrace { return spanTrace.Load() }

// SetSpanSampleEvery records every n-th root span (1 = all). Sampling
// happens at the root: children of an unsampled root cost nothing, so n
// is the single knob trading trace completeness for hot-path overhead.
func SetSpanSampleEvery(n int) error {
	if n < 1 {
		return fmt.Errorf("telemetry: span sample rate must be >= 1, got %d", n)
	}
	spanEvery.Store(uint64(n))
	return nil
}

// RootSpan opens a new causal trace at a kernel operation. With
// tracing off this is one atomic load, inlined into the caller. The
// span's track (Chrome tid) is its own ID, so each sampled trace
// renders on a clean lane with children nested by time containment;
// shard or worker identity belongs in the End args.
func RootSpan(name, cat string) Span {
	if !spansOn.Load() {
		return Span{}
	}
	return sampleRoot(name, cat)
}

// sampleRoot is RootSpan past its on/off check, out of line so that the
// check inlines into every root site.
func sampleRoot(name, cat string) Span {
	if every := spanEvery.Load(); every > 1 && spanRoots.Add(1)%every != 0 {
		return Span{}
	}
	id := SpanID(spanSeq.Add(1))
	return Span{id: id, track: uint64(id), name: name, cat: cat, start: spanNow()}
}

// ChildSpan opens a span under ctx; an inactive context yields an
// inactive span after one zero test, inlined into the caller.
func ChildSpan(ctx SpanCtx, name, cat string) Span {
	if ctx.Parent == 0 {
		return Span{}
	}
	return openChild(ctx, name, cat)
}

// openChild is ChildSpan past its zero test, out of line like
// sampleRoot.
func openChild(ctx SpanCtx, name, cat string) Span {
	return Span{
		id:     SpanID(spanSeq.Add(1)),
		parent: ctx.Parent,
		track:  ctx.Track,
		name:   name,
		cat:    cat,
		start:  spanNow(),
	}
}

// End closes the span, attaching its three kind-specific operands
// (candidate, chosen page and outcome for evictions; filter index and
// byte counts for stream passes; …), and records it in the current
// ring.
func (s Span) End(a, b, c uint64) {
	if s.id == 0 {
		return
	}
	st := spanTrace.Load()
	if st == nil {
		return
	}
	st.record(SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Cat:    s.cat,
		Track:  s.track,
		Start:  s.start,
		Dur:    spanNow() - s.start,
		A:      a,
		B:      b,
		C:      c,
	})
}
