package tech

import (
	"fmt"
	"time"

	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

// FuelReporter is the optional engine interface telemetry uses for
// per-invocation fuel accounting: FuelUsed reports the fuel the most
// recent invocation consumed. Every metered engine (both bytecode VMs,
// the closure translator behind AOT and the runtime-codegen classes, the
// script interpreter) implements it.
type FuelReporter interface {
	FuelUsed() int64
}

// instrumented wraps a Graft with telemetry: invocations are counted,
// a sampled subset is latency-timed into the histogram, traps are
// classified by kind, and fuel consumption is accumulated for engines
// loaded with a fuel budget. The wrapper preserves the DirectCaller fast
// path — hook points that resolve an entry once get an instrumented
// closure, so the hot loop and the slow path feed the same counters.
//
// Budget discipline (<=2%, measured in BenchmarkAblationTelemetry and
// recorded in docs/observability.md): a locked atomic add per invocation
// alone costs ~6ns — over 2% of a ~250ns compiled graft — so BOTH the
// invocation count and the fuel total are batched in plain local
// counters and flushed to the shared atomics at each sampling point
// (every 256th call by default) and on every error. Each call path —
// the wrapper's Invoke and every Direct closure it hands out — owns one
// recorder, so each batch has exactly one writer: a Graft is
// single-goroutine by contract, and concurrent callers go through
// tech.Pool, where every pooled instance gets its own wrapper flushing
// into the shared per-(graft,technology) accumulator. Under contention
// that leaves one uncontended-in-the-common-case atomic add per 256
// calls — the reason instrumented multicore runs stay inside the same
// <=2% envelope as single-threaded ones. Snapshot readers see counts
// that lag each live call path by at most one sampling interval. The
// unsampled, error-free invocation pays an inlined register increment
// and mask test, plus (metered engines only) one call to read the fuel.
type instrumented struct {
	inner    Graft
	recorder        // the Invoke path's bookkeeping
	spanName string // "engine:<technology>", precomputed at wrap time
	span     telemetry.SpanCtx
}

// recorder is the bookkeeping of one single-writer call path. enter and
// exit bracket every invocation; they inline the common case (allowed,
// unsampled, error-free, unmetered) and leave the rest to sample and
// record.
type recorder struct {
	met     *telemetry.GraftMetrics
	fuel    FuelReporter // nil unless the engine is metered
	mask    uint64       // sampling mask, captured at wrap time
	quarErr error
	n       uint64 // batched invocation count
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
		r.met.AddInvocations(r.mask + 1)
		r.t0 = time.Now()
	}
	return nil
}

// exit closes the invocation enter opened.
func (r *recorder) exit(err error) {
	if err == nil && r.fuel == nil && r.n&r.mask != 0 {
		return
	}
	r.record(err)
}

// record is exit's slow path: it times a sampled call, batches a
// metered engine's fuel, and flushes the fuel at sampling points and on
// errors, so trap forensics see exact fuel.
func (r *recorder) record(err error) {
	sampled := r.n&r.mask == 0
	if sampled {
		r.met.RecordLatency(time.Since(r.t0))
	}
	if r.fuel != nil {
		r.fuelAcc += r.fuel.FuelUsed()
	}
	if !sampled && err == nil {
		return
	}
	r.met.AddFuel(r.fuelAcc)
	r.fuelAcc = 0
	if err != nil {
		r.met.RecordError(err)
	}
}

// instrument wraps g so its invocations are recorded under the
// (graft, technology) pair.
func instrument(g Graft, graft string, id ID, metered bool) Graft {
	met := telemetry.Register(graft, string(id))
	ig := &instrumented{inner: g, spanName: "engine:" + string(id)}
	ig.recorder = recorder{
		met:     met,
		mask:    met.Mask(),
		quarErr: fmt.Errorf("tech %s: graft %q: %w", id, graft, telemetry.ErrQuarantined),
	}
	if fr, ok := g.(FuelReporter); ok && metered {
		ig.fuel = fr
	}
	return ig
}

// callInner dispatches to the inner graft, routing through its
// InvokeSpan when a causal span context is pending so a pool-worker
// engine (or a wrapped upcall domain) can keep nesting child spans.
func (ig *instrumented) callInner(entry string, args ...uint32) (uint32, error) {
	if ig.span.Active() {
		if si, ok := ig.inner.(SpanInvoker); ok {
			return si.InvokeSpan(ig.span, entry, args...)
		}
	}
	return ig.inner.Invoke(entry, args...)
}

// InvokeSpan implements SpanInvoker: the invocation is recorded as an
// "engine" child span of ctx, and the context is handed further down
// so upcall crossings nest inside the engine span.
func (ig *instrumented) InvokeSpan(ctx telemetry.SpanCtx, entry string, args ...uint32) (uint32, error) {
	sp := telemetry.ChildSpan(ctx, ig.spanName, "engine")
	if !sp.Active() {
		return ig.Invoke(entry, args...)
	}
	ig.span = sp.Ctx()
	v, err := ig.Invoke(entry, args...)
	ig.span = telemetry.SpanCtx{}
	var fuelUsed uint64
	if ig.fuel != nil {
		fuelUsed = uint64(ig.fuel.FuelUsed())
	}
	var errBit uint64
	if err != nil {
		errBit = 1
	}
	sp.End(fuelUsed, errBit)
	return v, err
}

// Invoke implements Graft.
func (ig *instrumented) Invoke(entry string, args ...uint32) (uint32, error) {
	if err := ig.enter(); err != nil {
		return 0, err
	}
	v, err := ig.callInner(entry, args...)
	ig.exit(err)
	return v, err
}

// Memory implements Graft.
func (ig *instrumented) Memory() *mem.Memory { return ig.inner.Memory() }

// Direct implements DirectCaller: the resolved inner fast path (or the
// Invoke fallback when the engine has none) wrapped with the same
// bookkeeping as Invoke, through a recorder of the closure's own.
func (ig *instrumented) Direct(entry string) (func(args []uint32) (uint32, error), bool) {
	fn := ResolveDirect(ig.inner, entry)
	r := &recorder{met: ig.met, fuel: ig.fuel, mask: ig.mask, quarErr: ig.quarErr}
	return func(args []uint32) (uint32, error) {
		if err := r.enter(); err != nil {
			return 0, err
		}
		v, err := fn(args)
		r.exit(err)
		return v, err
	}, true
}
