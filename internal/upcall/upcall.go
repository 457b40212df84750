// Package upcall models the hardware-protection technology class: the
// extension lives in a user-level server outside the kernel, and every
// invocation pays a protection-domain crossing (§4.1). Two costs matter:
//
//   - The real floor: a synchronous goroutine handoff, measured by
//     MeasureCrossing. This is what an aggressively tuned upcall path
//     could cost on today's machines.
//   - The paper's proxy: OS signal delivery to a child process, measured
//     by MeasureSignal with the paper's exact handled-minus-ignored
//     methodology (Table 1).
//
// Figure 1 needs break-even as a *function* of upcall time, so Domain can
// also impose a calibrated synthetic latency per crossing.
package upcall

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// call is one crossing: the server runs the inner graft's handle h
// with the crossing span's context.
type call struct {
	h    tech.Handle
	ctx  telemetry.SpanCtx
	args []uint32
}

type result struct {
	val  uint32
	fuel int64
	err  error
}

// Domain runs a graft in a separate goroutine "protection domain"; each
// call through one of its handles performs a synchronous upcall into
// it. Domain implements tech.Graft and tech.Resolver, so a hook point
// cannot tell a server-hosted graft from an in-kernel one — only the
// latency differs — and the fuel the engine charged comes back with the
// reply.
type Domain struct {
	inner   tech.Graft
	latency time.Duration
	req     chan call
	quit    chan struct{}
	done    chan struct{}
	once    sync.Once

	mu      sync.Mutex             // guards handles: callers on many goroutines resolve
	handles map[string]tech.Handle // one crossing handle per resolved entry

	// crossing is held from a call's send to its reply's receipt, so
	// one reply channel serves every caller; the server takes one call
	// at a time anyway. The server never takes it and answers every
	// call it receives, so a holder always gets its reply, and once the
	// server is gone the next holder sees done.
	crossing sync.Mutex
	reply    chan result

	// Delivery-fault injection (conformance tests): dropEvery > 0 makes
	// every Nth upcall fail with ErrDelivery before reaching the server,
	// modeling a lost message on the kernel↔server transport. The graft
	// never runs for a dropped call, and the domain stays usable. Both
	// counters are atomic: Invoke may be called from many goroutines
	// (the channel protocol serializes the server side already, and the
	// fault plan must not be the one racy piece of the crossing).
	dropEvery atomic.Uint64
	calls     atomic.Uint64
}

// ErrDelivery is the transport failure injected by FailDelivery: the
// upcall never reached the extension's domain. It is deliberately not a
// *mem.Trap — the graft did not fault, the channel to it did — and
// callers distinguish the two exactly as a kernel distinguishes a dead
// server from a trapping extension.
var ErrDelivery = errors.New("upcall: delivery failure (injected)")

// NewDomain starts a server goroutine around g. latency is added to every
// upcall by spinning, modeling the domain-crossing cost being swept in
// Figure 1 (0 means only the real goroutine-handoff cost is paid).
func NewDomain(g tech.Graft, latency time.Duration) *Domain {
	d := &Domain{
		inner:   g,
		latency: latency,
		req:     make(chan call),
		reply:   make(chan result, 1),
		handles: make(map[string]tech.Handle),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go d.serve()
	return d
}

func (d *Domain) serve() {
	defer close(d.done)
	for {
		select {
		case c := <-d.req:
			v, fuel, err := c.h(c.ctx, c.args)
			d.reply <- result{val: v, fuel: fuel, err: err}
		case <-d.quit:
			return
		}
	}
}

// Resolve implements tech.Resolver: the handle crosses into the server
// domain and runs the inner graft's handle for entry there. It is built
// on the first resolve of entry and reused after. A traced call is an
// "upcall" child span of the caller's context, or an "upcall" root when
// the caller passes none; the span's context goes on into the inner
// handle.
func (d *Domain) Resolve(entry string) (tech.Handle, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.handles[entry]
	if !ok {
		inner := tech.Resolve(d.inner, entry)
		h = func(ctx telemetry.SpanCtx, args []uint32) (uint32, int64, error) {
			return d.cross(ctx, inner, args)
		}
		d.handles[entry] = h
	}
	return h, true
}

// Invoke performs a synchronous upcall through entry's handle.
func (d *Domain) Invoke(entry string, args ...uint32) (uint32, error) {
	h, _ := d.Resolve(entry)
	v, _, err := h(telemetry.SpanCtx{}, args)
	return v, err
}

// cross is the crossing behind every handle. Its span, when active,
// ends with the arg count, the synthetic latency and an error bit; its
// duration is the measured round trip.
func (d *Domain) cross(ctx telemetry.SpanCtx, h tech.Handle, args []uint32) (uint32, int64, error) {
	sp := telemetry.ChildSpan(ctx, "upcall", "upcall")
	if !ctx.Active() {
		sp = telemetry.RootSpan("upcall", "upcall")
	}
	v, fuel, err := d.deliver(sp.Ctx(), h, args)
	if sp.Active() {
		var errBit uint64
		if err != nil {
			errBit = 1
		}
		sp.End(uint64(len(args)), uint64(d.latency.Nanoseconds()), errBit)
	}
	return v, fuel, err
}

// deliver hands one call to the server domain and waits for its reply.
func (d *Domain) deliver(ctx telemetry.SpanCtx, h tech.Handle, args []uint32) (uint32, int64, error) {
	if nth := d.dropEvery.Load(); nth > 0 {
		if d.calls.Add(1)%nth == 0 {
			return 0, 0, ErrDelivery
		}
	}
	if d.latency > 0 {
		spin(d.latency)
	}
	d.crossing.Lock()
	select {
	case d.req <- call{h: h, ctx: ctx, args: args}:
	case <-d.done:
		d.crossing.Unlock()
		return 0, 0, fmt.Errorf("upcall: domain is closed")
	}
	r := <-d.reply
	d.crossing.Unlock()
	return r.val, r.fuel, r.err
}

// Memory exposes the server's graft memory; the kernel marshals inputs
// through it exactly as for in-kernel grafts.
func (d *Domain) Memory() *mem.Memory { return d.inner.Memory() }

// Close shuts the server down and waits for it to exit. Close is
// idempotent; Invoke after Close returns an error.
func (d *Domain) Close() {
	d.once.Do(func() { close(d.quit) })
	<-d.done
}

// Latency reports the synthetic per-upcall latency.
func (d *Domain) Latency() time.Duration { return d.latency }

// FailDelivery arms delivery-fault injection: every nth Invoke fails
// with ErrDelivery without reaching the server (0 disarms).
func (d *Domain) FailDelivery(nth uint64) {
	d.calls.Store(0)
	d.dropEvery.Store(nth)
}

// PoolWrapper adapts NewDomain to tech.PoolConfig.Wrap: the
// domain-per-worker mode, where every pooled instance runs behind its
// own user-level server. N concurrent workers then pay N independent
// protection-domain crossings instead of serializing on one server's
// request channel — the user-level analogue of per-CPU eBPF programs.
func PoolWrapper(latency time.Duration) func(tech.Graft) (tech.Graft, func()) {
	return func(g tech.Graft) (tech.Graft, func()) {
		d := NewDomain(g, latency)
		return d, d.Close
	}
}

// spin busy-waits for d; sleeping is far too coarse for the microsecond
// latencies Figure 1 sweeps.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// MeasureCrossing times a round trip into a Domain running a trivial
// graft, reporting the mean cost of one upcall with no work and no
// synthetic latency. iters should be large enough to amortize timer
// resolution (10k is plenty).
func MeasureCrossing(iters int) (time.Duration, error) {
	src := tech.Source{Name: "noop", GEL: `func main() { return 0; }`}
	g, err := tech.Load(tech.NativeUnsafe, src, mem.New(4096), tech.Options{})
	if err != nil {
		return 0, err
	}
	d := NewDomain(g, 0)
	defer d.Close()
	// Warm up the goroutine pair.
	for i := 0; i < 100; i++ {
		if _, err := d.Invoke("main"); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := d.Invoke("main"); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(iters), nil
}
