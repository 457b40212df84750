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

type call struct {
	entry string
	args  []uint32
	reply chan result
}

type result struct {
	val uint32
	err error
}

// Domain runs a graft in a separate goroutine "protection domain"; Invoke
// performs a synchronous upcall into it. Domain implements tech.Graft, so
// a hook point cannot tell a server-hosted graft from an in-kernel one —
// only the latency differs.
type Domain struct {
	inner   tech.Graft
	latency time.Duration
	req     chan call
	quit    chan struct{}
	done    chan struct{}
	once    sync.Once

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
			v, err := d.inner.Invoke(c.entry, c.args...)
			c.reply <- result{val: v, err: err}
		case <-d.quit:
			return
		}
	}
}

// Invoke performs a synchronous upcall: marshal the request to the server
// domain, wait for the reply, and pay the crossing latency. A traced
// crossing with no parent context is an "upcall" root span.
func (d *Domain) Invoke(entry string, args ...uint32) (uint32, error) {
	return d.invoke(telemetry.RootSpan("upcall", "upcall"), entry, args)
}

// InvokeSpan implements tech.SpanInvoker: the protection-boundary
// crossing is recorded as an "upcall" child span of ctx, so a traced
// eviction shows the crossing cost nested inside the engine span. An
// inactive ctx opens a root instead, as Invoke does.
func (d *Domain) InvokeSpan(ctx telemetry.SpanCtx, entry string, args ...uint32) (uint32, error) {
	if !ctx.Active() {
		return d.Invoke(entry, args...)
	}
	return d.invoke(telemetry.ChildSpan(ctx, "upcall", "upcall"), entry, args)
}

// invoke is the crossing behind Invoke and InvokeSpan. sp, when active,
// ends with the arg count, the synthetic latency and an error bit; its
// duration is the measured round trip.
func (d *Domain) invoke(sp telemetry.Span, entry string, args []uint32) (uint32, error) {
	v, err := d.cross(entry, args)
	if sp.Active() {
		var errBit uint64
		if err != nil {
			errBit = 1
		}
		sp.End(uint64(len(args)), uint64(d.latency.Nanoseconds()), errBit)
	}
	return v, err
}

// cross delivers one call to the server domain and waits for its reply.
func (d *Domain) cross(entry string, args []uint32) (uint32, error) {
	if nth := d.dropEvery.Load(); nth > 0 {
		if d.calls.Add(1)%nth == 0 {
			return 0, ErrDelivery
		}
	}
	if d.latency > 0 {
		spin(d.latency)
	}
	reply := make(chan result, 1)
	select {
	case d.req <- call{entry: entry, args: args, reply: reply}:
	case <-d.done:
		return 0, fmt.Errorf("upcall: domain is closed")
	}
	r := <-reply
	return r.val, r.err
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
