package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"graftlab/internal/kernel"
	"graftlab/internal/ld"
	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
)

// layer names one span kind: a boundary the benchmark's wrappers record
// around a call into a package.
type layer uint8

const (
	layerRequest layer = iota // the whole request, as the client times it
	layerHotlist              // grafts.HotList Set/Remove
	layerPager                // kernel.Pager.Access
	layerEvict                // grafts.GraftEvictionPolicy.ChooseVictim
	layerStream               // kernel.Chain Write/Close
	layerMD5                  // grafts.MD5Filter Process/Finish and MD5Graft.Reset
	layerLD                   // ld.LD.Write
	layerLDMap                // grafts.GraftMapper.MapWrite
	layerDemux                // netsim.Demux.DeliverBatch
	layerSlot                 // lifecycle.Slot.Invoke
	layerCarrier              // lifecycle.Carrier Acquire and release
	layerGraft                // the loaded engine: instrument wrapper plus engine
	layerUpcall               // upcall.Domain.Invoke
	numLayers
)

var layerNames = [numLayers]string{
	"request", "grafts.hotlist", "kernel.pager", "grafts.evict",
	"kernel.stream", "grafts.md5", "ld", "grafts.ldmap", "netsim.demux",
	"lifecycle.slot", "lifecycle.carrier", "tech.graft", "upcall",
}

// span is one recorded interval. Spans of one request share req; parent
// indexes the enclosing span in the recorder's buffer (-1 for none).
type span struct {
	req        uint64
	parent     int32
	layer      layer
	class      int8 // tenant class for request and engine spans, else -1
	start, end int64
}

// keepSpans bounds the span buffer: after a request ends with more than
// this many spans buffered, the buffer restarts, so memory stays fixed
// and -spans-out writes the most recent requests.
const keepSpans = 1 << 16

// recorder is the traced run's span recorder. It is not locked: the only
// other goroutine that records is an upcall server, and it does so only
// while the client is blocked on the synchronous crossing, whose channel
// handoffs order the two goroutines' accesses.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of open spans; the top is the next span's parent
	req   uint64
	first int // buffer index of the current request's span
	child []int64

	// Aggregates over every request since the last reset.
	requests   int64
	reqNanos   int64
	self       [numLayers]int64
	graftSelf  [numClasses]int64
	graftCalls [numClasses]int64
	classReqs  [numClasses]int64
	crossings  int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, keepSpans+1024)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) begin(l layer, class int) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{req: r.req, parent: parent, layer: l, class: int8(class), start: r.now()})
	i := int32(len(r.spans) - 1)
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32) {
	r.spans[i].end = r.now()
	r.open = r.open[:len(r.open)-1]
}

// beginRequest opens the root span of one request served by a tenant of
// class c.
func (r *recorder) beginRequest(c int) {
	r.req++
	r.first = len(r.spans)
	r.begin(layerRequest, c)
}

// endRequest closes the request span and folds the request's spans into
// the per-layer self times. A span's self time is its duration minus the
// durations of its children, so the self times of one request sum to its
// span exactly; a child outlasting its parent or a span left open is a
// recording error.
func (r *recorder) endRequest() error {
	r.end(int32(r.first))
	if len(r.open) != 0 {
		return fmt.Errorf("trace: request %d ended with %d spans open", r.req, len(r.open))
	}
	spans := r.spans[r.first:]
	if cap(r.child) < len(spans) {
		r.child = make([]int64, len(spans))
	}
	child := r.child[:len(spans)]
	for i := range child {
		child[i] = 0
	}
	for i := len(spans) - 1; i > 0; i-- {
		child[int(spans[i].parent)-r.first] += spans[i].end - spans[i].start
	}
	var sum int64
	for i, sp := range spans {
		self := sp.end - sp.start - child[i]
		if self < 0 {
			return fmt.Errorf("trace: request %d: %s span is shorter than its children", r.req, layerNames[sp.layer])
		}
		sum += self
		r.self[sp.layer] += self
		switch sp.layer {
		case layerGraft:
			r.graftSelf[sp.class] += self
			r.graftCalls[sp.class]++
		case layerUpcall:
			r.crossings++
		}
	}
	root := spans[0]
	if total := root.end - root.start; sum != total {
		return fmt.Errorf("trace: request %d: self times sum to %dns, span is %dns", r.req, sum, total)
	}
	r.requests++
	r.reqNanos += root.end - root.start
	r.classReqs[root.class]++
	if len(r.spans) > keepSpans {
		r.spans = r.spans[:0]
	}
	return nil
}

// reset drops the aggregates (after warm-up); retained spans stay.
func (r *recorder) reset() {
	r.requests, r.reqNanos, r.crossings = 0, 0, 0
	r.self = [numLayers]int64{}
	r.graftSelf = [numClasses]int64{}
	r.graftCalls = [numClasses]int64{}
	r.classReqs = [numClasses]int64{}
}

// writeSpans writes the retained spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, sp := range r.spans {
		cls := ""
		if sp.class >= 0 {
			cls = allClasses[sp.class].name
		}
		rec := struct {
			Req     uint64 `json:"req"`
			ID      int    `json:"id"`
			Parent  int32  `json:"parent"`
			Layer   string `json:"layer"`
			Class   string `json:"class,omitempty"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{sp.req, i, sp.parent, layerNames[sp.layer], cls, sp.start, sp.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanGraft records a span around every invocation of the graft it wraps.
// It deliberately offers no Direct entry, so callers keep invoking
// through it.
type spanGraft struct {
	inner tech.Graft
	r     *recorder
	l     layer
	class int
}

func (r *recorder) graft(g tech.Graft, l layer, class int) tech.Graft {
	return &spanGraft{inner: g, r: r, l: l, class: class}
}

func (g *spanGraft) Invoke(entry string, args ...uint32) (uint32, error) {
	i := g.r.begin(g.l, g.class)
	v, err := g.inner.Invoke(entry, args...)
	g.r.end(i)
	return v, err
}

func (g *spanGraft) Memory() *mem.Memory { return g.inner.Memory() }

// spanCarrier records the carrier's Acquire and its release as two spans.
type spanCarrier struct {
	inner lifecycle.Carrier
	r     *recorder
}

func (r *recorder) carrier(c lifecycle.Carrier) lifecycle.Carrier { return spanCarrier{inner: c, r: r} }

func (c spanCarrier) Acquire() (tech.Graft, func(), error) {
	i := c.r.begin(layerCarrier, -1)
	g, release, err := c.inner.Acquire()
	c.r.end(i)
	if err != nil {
		return g, release, err
	}
	return g, func() {
		j := c.r.begin(layerCarrier, -1)
		release()
		c.r.end(j)
	}, nil
}

// spanPolicy records the eviction hook.
type spanPolicy struct {
	inner kernel.EvictionPolicy
	r     *recorder
}

func (p spanPolicy) ChooseVictim(pg *kernel.Pager, candidate kernel.PageID) (kernel.PageID, error) {
	i := p.r.begin(layerEvict, -1)
	v, err := p.inner.ChooseVictim(pg, candidate)
	p.r.end(i)
	return v, err
}

// spanFilter records a stream filter's passes.
type spanFilter struct {
	inner kernel.Filter
	r     *recorder
}

func (f spanFilter) Name() string { return f.inner.Name() }

func (f spanFilter) Process(p []byte) ([]byte, error) {
	i := f.r.begin(layerMD5, -1)
	out, err := f.inner.Process(p)
	f.r.end(i)
	return out, err
}

func (f spanFilter) Finish() ([]byte, error) {
	i := f.r.begin(layerMD5, -1)
	out, err := f.inner.Finish()
	f.r.end(i)
	return out, err
}

// spanMapper records the logical disk's mapping calls.
type spanMapper struct {
	inner ld.Mapper
	r     *recorder
}

func (m spanMapper) MapWrite(lblock uint32) (uint32, error) {
	i := m.r.begin(layerLDMap, -1)
	p, err := m.inner.MapWrite(lblock)
	m.r.end(i)
	return p, err
}

func (m spanMapper) MapRead(lblock uint32) (uint32, error) {
	i := m.r.begin(layerLDMap, -1)
	p, err := m.inner.MapRead(lblock)
	m.r.end(i)
	return p, err
}
