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
// (every 256th call by default) and on every error. Each wrapper (and
// each Direct closure it hands out) has exactly one writer: a Graft is
// single-goroutine by contract, and concurrent callers go through
// tech.Pool, where every pooled instance gets its own wrapper flushing
// into the shared per-(graft,technology) accumulator. Under contention
// that leaves one uncontended-in-the-common-case atomic add per 256
// calls — the reason instrumented multicore runs stay inside the same
// <=2% envelope as single-threaded ones. Snapshot readers see counts
// that lag each live call path by at most one sampling interval. The
// unsampled, error-free invocation pays a register increment, a mask
// test, and (metered engines only) one fuel read.
type instrumented struct {
	inner    Graft
	met      *telemetry.GraftMetrics
	fuel     FuelReporter // nil unless the engine is metered
	mask     uint64       // sampling mask, captured at wrap time
	n        uint64       // batched invocation count for the Invoke path
	fuelAcc  int64        // batched fuel for the Invoke path
	spanName string       // "engine:<technology>", precomputed at wrap time
	span     telemetry.SpanCtx
	denied   bool // cached quarantine verdict, refreshed at sampling points
	quarErr  error
}

// Instrument wraps g so its invocations are recorded under the
// (graft, technology) pair. Load applies it automatically while
// telemetry is enabled; tests and tools can wrap explicitly (which
// enables fuel accounting whenever the engine supports it).
func Instrument(g Graft, graft string, id ID) Graft {
	return instrument(g, graft, id, true)
}

func instrument(g Graft, graft string, id ID, metered bool) Graft {
	met := telemetry.Register(graft, string(id))
	ig := &instrumented{inner: g, met: met, mask: met.Mask(), spanName: "engine:" + string(id)}
	ig.quarErr = fmt.Errorf("tech %s: graft %q: %w", id, graft, telemetry.ErrQuarantined)
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
	if ig.denied {
		// Denied is already the slow path: re-read the shared flag so a
		// lifted quarantine restores service immediately.
		if ig.met.Quarantined() {
			return 0, ig.quarErr
		}
		ig.denied = false
	}
	ig.n++
	if ig.n&ig.mask == 0 {
		// Sampling point: flush the batched counts, refresh the cached
		// watchdog verdict, and time this call.
		ig.denied = ig.met.Quarantined()
		ig.met.AddInvocations(ig.mask + 1)
		t0 := time.Now()
		v, err := ig.callInner(entry, args...)
		ig.met.RecordLatency(time.Since(t0))
		if ig.fuel != nil {
			ig.met.AddFuel(ig.fuelAcc + ig.fuel.FuelUsed())
			ig.fuelAcc = 0
		}
		if err != nil {
			ig.met.RecordError(err)
		}
		return v, err
	}
	v, err := ig.callInner(entry, args...)
	if ig.fuel != nil {
		ig.fuelAcc += ig.fuel.FuelUsed()
	}
	if err != nil {
		// Errors are already the slow path: flush so trap forensics see
		// exact fuel, then classify.
		if ig.fuel != nil {
			ig.met.AddFuel(ig.fuelAcc)
			ig.fuelAcc = 0
		}
		ig.met.RecordError(err)
	}
	return v, err
}

// Memory implements Graft.
func (ig *instrumented) Memory() *mem.Memory { return ig.inner.Memory() }

// Direct implements DirectCaller: the resolved inner fast path (or the
// Invoke fallback when the engine has none) wrapped with the same
// bookkeeping as Invoke. Each resolved closure batches its own local
// count (one flush per sampling interval); the unmetered closure is
// specialized so the common case skips the fuel interface call.
func (ig *instrumented) Direct(entry string) (func(args []uint32) (uint32, error), bool) {
	fn := ResolveDirect(ig.inner, entry)
	met := ig.met
	fuel := ig.fuel
	mask := ig.mask
	quarErr := ig.quarErr
	var local uint64
	var denied bool
	if fuel == nil {
		return func(args []uint32) (uint32, error) {
			if denied {
				if met.Quarantined() {
					return 0, quarErr
				}
				denied = false
			}
			local++
			if local&mask == 0 {
				denied = met.Quarantined()
				met.AddInvocations(mask + 1)
				t0 := time.Now()
				v, err := fn(args)
				met.RecordLatency(time.Since(t0))
				if err != nil {
					met.RecordError(err)
				}
				return v, err
			}
			v, err := fn(args)
			if err != nil {
				met.RecordError(err)
			}
			return v, err
		}, true
	}
	var fuelAcc int64
	return func(args []uint32) (uint32, error) {
		if denied {
			if met.Quarantined() {
				return 0, quarErr
			}
			denied = false
		}
		local++
		if local&mask == 0 {
			denied = met.Quarantined()
			met.AddInvocations(mask + 1)
			t0 := time.Now()
			v, err := fn(args)
			met.RecordLatency(time.Since(t0))
			met.AddFuel(fuelAcc + fuel.FuelUsed())
			fuelAcc = 0
			if err != nil {
				met.RecordError(err)
			}
			return v, err
		}
		v, err := fn(args)
		fuelAcc += fuel.FuelUsed()
		if err != nil {
			met.AddFuel(fuelAcc)
			fuelAcc = 0
			met.RecordError(err)
		}
		return v, err
	}, true
}
