package tech

import (
	"fmt"
	"time"

	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

// instrumented wraps a Graft with telemetry: invocations are counted,
// a sampled subset is latency-timed into the histogram, traps are
// classified by kind, and the fuel each call's handle reports is
// accumulated. Every call goes through a handle the wrapper builds on
// the first resolve of its entry, over the inner graft's own handle, so
// hook points that resolve once and Invoke callers feed the same
// counters. A traced call is an "engine" child span of the caller's
// context, and the span's context goes on into the inner handle, so an
// upcall crossing below nests inside it.
//
// Budget discipline (<=2%, measured in BenchmarkAblationTelemetry and
// recorded in docs/observability.md): a locked atomic add per invocation
// alone costs ~6ns — over 2% of a ~250ns compiled graft — so BOTH the
// invocation count and the fuel total are batched in plain local
// counters and flushed to the shared atomics at each sampling point
// (every 256th call by default) and on every error. The wrapper owns one
// recorder, so each batch has exactly one writer: a Graft is
// single-goroutine by contract, and concurrent callers go through
// tech.Pool, where every pooled instance gets its own wrapper flushing
// into the shared per-(graft,technology) accumulator. Under contention
// that leaves one uncontended-in-the-common-case atomic add per 256
// calls — the reason instrumented multicore runs stay inside the same
// <=2% envelope as single-threaded ones. Snapshot readers see counts
// that lag each live wrapper by at most one sampling interval. The
// unsampled, error-free invocation pays an inlined register increment,
// a fuel add and a mask test.
type instrumented struct {
	inner    Graft
	recorder        // the wrapper's bookkeeping
	spanName string // "engine:<technology>", precomputed at wrap time
	handles  map[string]Handle
}

// recorder is the bookkeeping of one single-writer wrapper. enter and
// exit bracket every invocation; they inline the common case (allowed,
// unsampled, error-free) and leave the rest to sample and record.
type recorder struct {
	met     *telemetry.GraftMetrics
	mask    uint64 // sampling mask, captured at wrap time
	quarErr error
	n       uint64 // invocation count
	flushed uint64 // the part of n already added to met
	fuelAcc int64  // batched fuel
	denied  bool   // cached quarantine verdict, refreshed at sampling points
	t0      time.Time
}

// enter opens one invocation, refusing it while the pair is denied.
func (r *recorder) enter() error {
	if r.denied || (r.n+1)&r.mask == 0 {
		return r.sample()
	}
	r.n++
	return nil
}

// sample is enter's slow path: a denied pair, or a sampling point, which
// flushes the batched count, refreshes the cached verdict and starts the
// clock.
func (r *recorder) sample() error {
	if r.denied {
		// Denied is already the slow path: re-read the shared flag so a
		// lifted quarantine restores service immediately.
		if r.met.Quarantined() {
			return r.quarErr
		}
		r.denied = false
	}
	r.n++
	if r.n&r.mask == 0 {
		r.denied = r.met.Quarantined()
		r.flush()
		r.t0 = time.Now()
	}
	return nil
}

// flush adds the invocations counted since the last flush to met.
func (r *recorder) flush() {
	r.met.AddInvocations(r.n - r.flushed)
	r.flushed = r.n
}

// exit closes the invocation enter opened, batching the fuel it charged.
func (r *recorder) exit(err error, fuel int64) {
	r.fuelAcc += fuel
	if err == nil && r.n&r.mask != 0 {
		return
	}
	r.record(err)
}

// record is exit's slow path: it times a sampled call and flushes the
// fuel at sampling points and on errors, so trap forensics see exact
// fuel. An error also flushes the invocation count, so every error lands
// together with its invocation and trap ratios never exceed 1.
func (r *recorder) record(err error) {
	if r.n&r.mask == 0 {
		r.met.RecordLatency(time.Since(r.t0))
	}
	r.met.AddFuel(r.fuelAcc)
	r.fuelAcc = 0
	if err != nil {
		r.flush()
		r.met.RecordError(err)
	}
}

// instrument wraps g so its invocations are recorded under the
// (graft, technology) pair.
func instrument(g Graft, graft string, id ID) Graft {
	met := telemetry.Register(graft, string(id))
	return &instrumented{
		inner: g,
		recorder: recorder{
			met:     met,
			mask:    met.Mask(),
			quarErr: fmt.Errorf("tech %s: graft %q: %w", id, graft, telemetry.ErrQuarantined),
		},
		spanName: "engine:" + string(id),
		handles:  make(map[string]Handle),
	}
}

// Resolve implements Resolver: the inner graft's handle for entry,
// wrapped with the recorder and the engine span, built on the first
// resolve of entry and reused after.
func (ig *instrumented) Resolve(entry string) (Handle, bool) {
	if h, ok := ig.handles[entry]; ok {
		return h, true
	}
	inner := Resolve(ig.inner, entry)
	h := func(ctx telemetry.SpanCtx, args []uint32) (uint32, int64, error) {
		if err := ig.enter(); err != nil {
			return 0, 0, err
		}
		sp := telemetry.ChildSpan(ctx, ig.spanName, "engine")
		v, fuel, err := inner(sp.Ctx(), args)
		ig.exit(err, fuel)
		if sp.Active() {
			var errBit uint64
			if err != nil {
				errBit = 1
			}
			sp.End(uint64(fuel), errBit, 0)
		}
		return v, fuel, err
	}
	ig.handles[entry] = h
	return h, true
}

// Invoke implements Graft.
func (ig *instrumented) Invoke(entry string, args ...uint32) (uint32, error) {
	h, _ := ig.Resolve(entry)
	v, _, err := h(telemetry.SpanCtx{}, args)
	return v, err
}

// Memory implements Graft.
func (ig *instrumented) Memory() *mem.Memory { return ig.inner.Memory() }

// Flush adds what g's telemetry wrapper has batched since its last
// flush, invocations and fuel, to the shared metrics, so a graft called
// fewer times than one sampling interval still shows in
// telemetry.SnapshotAll. A no-op for an uninstrumented graft. Call it
// when the caller is done with g; no hot path does.
func Flush(g Graft) {
	if ig, ok := g.(*instrumented); ok {
		ig.flush()
		ig.met.AddFuel(ig.fuelAcc)
		ig.fuelAcc = 0
	}
}
