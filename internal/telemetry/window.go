package telemetry

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Sliding-window aggregation: the cumulative-since-start counters in
// GraftMetrics answer "what has this graft done since boot" (the
// bpftool view), but a serving daemon needs "what is it doing *now*" —
// a graft that misbehaved an hour ago must look different from one
// misbehaving this second, and an SLO check on lifetime aggregates can
// neither catch a fresh regression promptly nor observe recovery.
// Production eBPF deployments answer this with continuously scraped,
// windowed per-program metrics; this file is that plane.
//
// Each GraftMetrics carries a ring of time-bucketed windows. A bucket
// holds the same signals as the cumulative accumulator — invocations,
// errors, traps, fuel preemptions, fuel, and a mergeable log2 latency
// histogram — for one fixed-width time slice. The ring rotates
// implicitly: a writer derives the bucket index from the clock
// (epoch = unixNanos / width, slot = epoch % len(ring)) and the first
// writer to enter a recycled slot zeroes it behind a CAS on the slot's
// published epoch. There is no rotation goroutine and no lock anywhere
// on the path.
//
// Budget: window recording rides the key's clock reads — the batched
// single-writer flush points (AddInvocations / RecordLatency / AddFuel
// fire every sampling interval), RecordError on the already-slow error
// path, and windowed snapshots. Counts recorded without a clock read
// (GraftMetrics.Count) wait in the cumulative counters and land in the
// bucket current at the next clock read, so the added cost is one
// coarse clock read plus a handful of uncontended atomic adds per flush
// — amortized to well under a nanosecond per invocation at the default
// 1-in-256 interval. BenchmarkObservabilityHotPath/window-* prices the
// pieces and the A6 ablation row re-measures the end-to-end budget with
// windows enabled.

// WindowConfig shapes the per-key bucket ring: Width is one bucket's
// time slice, Buckets the ring length, so the ring retains
// Width×Buckets of history. The retained span bounds Snapshot windows —
// asking for more history than the ring holds clamps to the ring.
type WindowConfig struct {
	Width   time.Duration
	Buckets int
}

// DefaultWindowConfig retains 64 five-second buckets (320s): enough to
// serve both burn-rate windows the watchdog defaults to (10s fast, 5m
// slow) at ~37KB per key that has landed any counts.
var DefaultWindowConfig = WindowConfig{Width: 5 * time.Second, Buckets: 64}

// windowWidth/windowBuckets are the current registration-time config,
// captured by each Windows at Register like the sampling mask.
var (
	windowWidth   atomic.Int64
	windowBuckets atomic.Int64
)

func init() {
	windowWidth.Store(int64(DefaultWindowConfig.Width))
	windowBuckets.Store(int64(DefaultWindowConfig.Buckets))
}

// SetWindowConfig sets the bucket geometry for keys registered after
// the call (the geometry is captured at Register time). Tests use small
// widths so rotations happen in milliseconds; production keeps the
// default. Width must be positive and Buckets >= 2 (a single bucket
// cannot hold one complete slice plus the current partial one).
func SetWindowConfig(cfg WindowConfig) error {
	if cfg.Width <= 0 || cfg.Buckets < 2 {
		return fmt.Errorf("telemetry: window config needs width > 0 and buckets >= 2, got %v x %d",
			cfg.Width, cfg.Buckets)
	}
	windowWidth.Store(int64(cfg.Width))
	windowBuckets.Store(int64(cfg.Buckets))
	return nil
}

// epochResetting marks a slot mid-zeroing; stored epochs are e+1 so the
// zero value means "never used" and real epochs are always positive.
const epochResetting = -1

// windowBucket is one time slice of one key's activity. All fields are
// atomic: flush points may run concurrently from pool workers, and
// snapshot readers never lock writers out.
type windowBucket struct {
	epoch       atomic.Int64 // bucket epoch + 1; 0 empty, -1 resetting
	invocations atomic.Uint64
	errs        atomic.Uint64
	traps       atomic.Uint64
	preempts    atomic.Uint64
	fuel        atomic.Int64
	lat         Histogram
}

// zero resets every counter. Runs only inside the rotation CAS window,
// so concurrent writers are parked on the epochResetting sentinel and
// cannot lose adds to the wipe.
func (b *windowBucket) zero() {
	b.invocations.Store(0)
	b.errs.Store(0)
	b.traps.Store(0)
	b.preempts.Store(0)
	b.fuel.Store(0)
	b.lat.Reset()
}

// Windows is one key's bucket ring. The ring is allocated by the first
// write, so a key that never lands counts (an unregistered accumulator
// on a slot that redeploys before its first sample) costs no buckets.
// The clock is a field so rotation edge cases (stalls, spans crossing a
// rotation) are testable without sleeping.
type Windows struct {
	width   int64 // bucket width, ns
	buckets int   // ring length
	ring    atomic.Pointer[[]windowBucket]
	now     func() int64 // unix ns; swapped by tests
}

func newWindows() *Windows {
	return &Windows{
		width:   windowWidth.Load(),
		buckets: int(windowBuckets.Load()),
		now:     func() int64 { return time.Now().UnixNano() },
	}
}

// Span reports how much history the ring retains.
func (w *Windows) Span() time.Duration {
	return time.Duration(w.width * int64(w.buckets))
}

// slots returns the ring, allocating it on first use.
func (w *Windows) slots() []windowBucket {
	if r := w.ring.Load(); r != nil {
		return *r
	}
	r := make([]windowBucket, w.buckets)
	if w.ring.CompareAndSwap(nil, &r) {
		return r
	}
	return *w.ring.Load()
}

// bucket returns the live bucket for the current clock reading,
// rotating (zeroing) a recycled slot on first entry. Lock-free: the
// only loop is the rotation CAS, taken once per key per bucket width.
// A writer that observes a *newer* epoch than its own clock reading
// (its read raced a rotation) records into the newer bucket rather
// than resurrecting the old one — at worst one flush lands one slice
// late, never in the future.
func (w *Windows) bucket() *windowBucket {
	ring := w.slots()
	e := w.now() / w.width
	b := &ring[int(e%int64(len(ring)))]
	for {
		cur := b.epoch.Load()
		switch {
		case cur == e+1 || cur > e+1:
			// Current (or a racing writer already rotated past us).
			return b
		case cur == epochResetting:
			// Another writer is zeroing; spin until it publishes.
			continue
		default: // stale or empty: rotate.
			if b.epoch.CompareAndSwap(cur, epochResetting) {
				b.zero()
				b.epoch.Store(e + 1)
				return b
			}
		}
	}
}

// WindowSnapshot aggregates one key's activity over the last Window of
// time: absolute counts plus the derived rates the SLO plane and the
// export surface consume. Durations are integer nanoseconds in JSON,
// like every duration the repo exports.
type WindowSnapshot struct {
	Graft  string        `json:"graft"`
	Tech   string        `json:"tech"`
	Window time.Duration `json:"window"`
	// Covered is the span the snapshot actually aggregates: less than
	// Window when the ring retains less history or the process is young.
	Covered time.Duration `json:"covered"`

	Invocations    uint64 `json:"invocations"`
	Errors         uint64 `json:"errors,omitempty"`
	Traps          uint64 `json:"traps,omitempty"`
	Preempts       uint64 `json:"preempts,omitempty"`
	Fuel           int64  `json:"fuel,omitempty"`
	LatencySamples uint64 `json:"latency_samples,omitempty"`

	Rate        float64 `json:"rate"`                   // invocations / second
	TrapRatio   float64 `json:"trap_ratio,omitempty"`   // (traps+errors) / invocations
	PreemptRate float64 `json:"preempt_rate,omitempty"` // fuel preemptions / invocations
	FuelPerSec  float64 `json:"fuel_per_sec,omitempty"`

	Mean time.Duration `json:"latency_mean,omitempty"`
	Std  time.Duration `json:"latency_std,omitempty"`
	P50  time.Duration `json:"latency_p50,omitempty"`
	P95  time.Duration `json:"latency_p95,omitempty"`
	P99  time.Duration `json:"latency_p99,omitempty"`
	Max  time.Duration `json:"latency_max,omitempty"`

	Quarantined bool   `json:"quarantined,omitempty"`
	Note        string `json:"note,omitempty"`
}

// snapshot merges the buckets covering the last d of time. The current
// partial bucket is included (freshness beats completeness for a live
// view); buckets whose epoch fell out of the requested range — or were
// recycled — are skipped, which is how empty slices and ring wrap
// resolve without any bookkeeping. A stalled clock shrinks Covered
// rather than producing negative or infinite rates.
func (w *Windows) snapshot(d time.Duration) WindowSnapshot {
	s := WindowSnapshot{Window: d}
	if d <= 0 {
		return s
	}
	now := w.now()
	cur := now / w.width
	n := int64((int64(d) + w.width - 1) / w.width) // slices to cover d, rounded up
	if n > int64(w.buckets) {
		n = int64(w.buckets)
	}
	if n < 1 {
		n = 1
	}
	var ring []windowBucket // stays nil until counts first land: nothing to merge
	if r := w.ring.Load(); r != nil {
		ring = *r
	}
	var lat Histogram
	for e := cur - n + 1; e <= cur && ring != nil; e++ {
		if e < 0 {
			continue
		}
		b := &ring[int(e%int64(len(ring)))]
		if b.epoch.Load() != e+1 {
			continue // empty, recycled, or mid-reset: nothing from this slice
		}
		s.Invocations += b.invocations.Load()
		s.Errors += b.errs.Load()
		s.Traps += b.traps.Load()
		s.Preempts += b.preempts.Load()
		s.Fuel += b.fuel.Load()
		lat.Merge(&b.lat)
	}
	// Covered time: n-1 complete slices plus the elapsed part of the
	// current one. now%width == 0 right at a boundary; the max(…, 1ns)
	// floor keeps a single-bucket snapshot from dividing by zero.
	covered := (n-1)*w.width + now%w.width
	if covered < 1 {
		covered = 1
	}
	s.Covered = time.Duration(covered)
	secs := float64(covered) / float64(time.Second)
	s.Rate = float64(s.Invocations) / secs
	s.FuelPerSec = float64(s.Fuel) / secs
	if s.Invocations > 0 {
		s.TrapRatio = float64(s.Traps+s.Errors) / float64(s.Invocations)
		s.PreemptRate = float64(s.Preempts) / float64(s.Invocations)
	}
	s.LatencySamples = lat.Count()
	if s.LatencySamples > 0 {
		s.Mean = lat.Mean()
		s.Std = lat.Std()
		s.P50 = lat.Quantile(0.50)
		s.P95 = lat.Quantile(0.95)
		s.P99 = lat.Quantile(0.99)
		s.Max = lat.Max()
	}
	return s
}

// Window aggregates the key's activity over the last d of time
// (clamped to the ring's retained span). Counts recorded since the
// key's last clock read land in the current bucket first, so windowed
// counts are exact at the moment of the snapshot. Concurrent with
// traffic the numbers are consistent-enough counters, not a
// linearizable cut — the same contract as Snapshot.
func (m *GraftMetrics) Window(d time.Duration) WindowSnapshot {
	if m.pending() {
		m.bucket()
	}
	s := m.win.snapshot(d)
	s.Graft = m.GraftName
	s.Tech = m.Tech
	s.Quarantined = m.quarantined.Load()
	s.Note = m.Note()
	return s
}

// WindowSpan reports how much history this key's ring retains.
func (m *GraftMetrics) WindowSpan() time.Duration { return m.win.Span() }

// WindowAll snapshots the last d of time for every registered key with
// any lifetime activity, sorted like Metrics. Keys idle across the
// whole window still appear (with zero rates) so a live view can show
// a quarantined or drained graft going quiet rather than vanishing.
func WindowAll(d time.Duration) []WindowSnapshot {
	ms := Metrics()
	out := make([]WindowSnapshot, 0, len(ms))
	for _, m := range ms {
		if m.Invocations() == 0 {
			continue
		}
		out = append(out, m.Window(d))
	}
	return out
}
