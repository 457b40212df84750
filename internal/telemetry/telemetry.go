// Package telemetry is the observability layer threaded through the
// technology classes and kernel hook points: per-graft invocation
// counters, log-bucketed latency histograms, and a bounded kernel event
// trace. It is the repo's equivalent of what production extension
// runtimes treat as a first-class subsystem — eBPF exposes per-program
// run counts and cumulative runtime via `bpftool prog`, and Rex keeps
// per-extension resource accounting — scaled to this simulation.
//
// The design constraint is that telemetry stays enabled during
// paper-scale measurement runs, so every hot-path operation is either a
// single uncontended atomic add or nothing at all:
//
//   - The whole subsystem sits behind one flag. When Disabled() reports
//     true (the default), tech.Load returns raw grafts and the kernel
//     hook points skip their Emit calls after one atomic load.
//   - Per-invocation latency is sampled (every SampleInterval-th
//     invocation is timed), so the two clock reads amortize to well
//     under a nanosecond per call.
//   - Trap classification and fuel accounting run only on paths that
//     are already slow (an error return, a metered engine).
//
// The measured budget is <= 2% on the hottest per-invocation benchmark
// (Table 2 compiled eviction); see docs/observability.md for the
// recorded numbers and the ablation rows that keep them honest.
package telemetry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graftlab/internal/mem"
)

// enabled gates the metrics subsystem; off by default so library users
// and the test suite pay nothing unless they opt in.
var enabled atomic.Bool

// SetEnabled turns per-graft invocation metrics on or off. Grafts loaded
// while metrics are off are not instrumented (the fast path is decided
// at load time), so flip this before tech.Load.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether invocation metrics are being recorded.
func Enabled() bool { return enabled.Load() }

// Disabled is the fast-path guard instrumentation sites check: one
// atomic load, true by default.
func Disabled() bool { return !enabled.Load() }

// numTrapKinds sizes the per-kind trap counters; mem.TrapKind values are
// small consecutive integers.
const numTrapKinds = int(mem.TrapUnreachable) + 1

// defaultSampleInterval times every 256th invocation. Two clock reads
// cost ~100ns on a virtualized host; amortized over 256 invocations
// that is well under a nanosecond, invisible even against a ~200ns
// compiled eviction, while a paper-scale run (tens of thousands of
// invocations per graft) still collects ~100+ histogram samples.
const defaultSampleInterval = 256

// sampleMask is the current latency sampling mask (interval-1, interval
// a power of two). Captured by each GraftMetrics at Register time.
var sampleMask atomic.Uint64

func init() { sampleMask.Store(defaultSampleInterval - 1) }

// SetSampleInterval sets how often an invocation's latency is timed: 1
// times every call, n times every n-th (rounded down to a power of two).
// It affects grafts registered after the call; zero and negative
// intervals are rejected with an error and leave the current interval
// unchanged.
//
// The interval trades accuracy for overhead. Timing costs two clock
// reads (~100ns virtualized), so interval 1 is exact but can dominate a
// ~200ns compiled invocation, while the default 256 amortizes the clock
// cost below a nanosecond at the price of resolution: a latency spike
// confined to fewer than ~interval consecutive invocations may fall
// between samples entirely, and quantiles need on the order of 100
// samples (interval × 100 invocations) before they stabilize. Batched
// counters also flush at sampling points, so live snapshots lag a hot
// loop by up to one interval.
func SetSampleInterval(n int) error {
	if n < 1 {
		return fmt.Errorf("telemetry: sample interval must be >= 1, got %d", n)
	}
	// Round down to a power of two so sampling is a mask, not a divide.
	p := 1
	for p*2 <= n {
		p *= 2
	}
	sampleMask.Store(uint64(p - 1))
	return nil
}

// GraftMetrics accumulates one (graft, technology) pair's runtime
// behaviour. All counters are atomic: instrumented grafts may be invoked
// from any goroutine, and snapshot readers never lock writers out.
type GraftMetrics struct {
	// GraftName and Tech identify the pair; fixed at Register time.
	GraftName string
	Tech      string

	invocations atomic.Uint64
	errors      atomic.Uint64 // non-trap invocation errors
	traps       [numTrapKinds]atomic.Uint64
	fuel        atomic.Int64 // cumulative fuel consumed (metered engines)

	latency Histogram
	mask    uint64 // latency sampling mask (interval-1)

	// win is the sliding-window plane (window.go): every clock read on
	// this key lands the invocations and fuel no bucket holds yet in the
	// current time bucket, so windowed snapshots, burn-rate SLOs, and
	// the /metrics surface see recent activity separately from the
	// cumulative counters above. landedInv and landedFuel are how much
	// of invocations and fuel the ring already holds.
	win        *Windows
	landedInv  atomic.Uint64
	landedFuel atomic.Uint64

	// note is a free-form state label the lifecycle layer stamps on
	// versioned keys ("canary", "incumbent", "demoted", …) so the export
	// surface and graftmon can flag deployment state without reaching
	// into the lifecycle package.
	note atomic.Pointer[string]

	// quarantined is set by the watchdog when the pair breaches its SLO
	// with quarantine enabled; tech.Load refuses quarantined pairs and
	// live instrumented wrappers deny further invocations at their next
	// sampling point.
	quarantined atomic.Bool
}

// Count records one completed invocation and the fuel it used, exactly
// and without reading the clock: the count reaches the window ring at
// the key's next clock read (a RecordLatency, a RecordError, or a
// Window/WindowAll snapshot). Callers that time only every n-th
// invocation thereby keep the untimed ones clock-free while windowed
// counts stay exact whenever they are read.
func (m *GraftMetrics) Count(fuel int64) {
	m.invocations.Add(1)
	if fuel > 0 {
		m.fuel.Add(fuel)
	}
}

// Mask returns the sampling mask (interval-1) captured at Register time.
// Single-writer callers batch their invocation counting against it and
// flush with AddInvocations — a locked add per invocation alone costs
// ~6ns, which would blow the <=2% budget on ~250ns compiled grafts.
func (m *GraftMetrics) Mask() uint64 { return m.mask }

// AddInvocations flushes a batch of invocations counted locally by a
// single-writer instrumentation path. Snapshot therefore lags a live
// call path by up to the sampling interval; the count is exact once the
// path reaches its next sampling point. The flush also lands the batch
// in the current window bucket — windowed views inherit the same
// at-most-one-interval lag.
func (m *GraftMetrics) AddInvocations(n uint64) {
	m.invocations.Add(n)
	m.bucket()
}

// RecordLatency feeds one timed invocation into the cumulative and
// current-window histograms.
func (m *GraftMetrics) RecordLatency(d time.Duration) {
	m.latency.Record(d)
	m.bucket().lat.Record(d)
}

// AddFuel accumulates fuel consumed by one invocation.
func (m *GraftMetrics) AddFuel(n int64) {
	if n > 0 {
		m.fuel.Add(n)
		m.bucket()
	}
}

// RecordError classifies a failed invocation: traps count per kind
// (fuel exhaustion is the preemption counter), everything else is an
// invocation error.
func (m *GraftMetrics) RecordError(err error) {
	var t *mem.Trap
	if errors.As(err, &t) && int(t.Kind) < numTrapKinds {
		m.traps[t.Kind].Add(1)
		b := m.bucket()
		b.traps.Add(1)
		if t.Kind == mem.TrapFuel {
			b.preempts.Add(1)
		}
		return
	}
	m.errors.Add(1)
	m.bucket().errs.Add(1)
}

// bucket is the key's clock read: it returns the current window bucket
// after landing there every invocation and fuel unit the cumulative
// counters hold but the ring does not yet. Landing claims the pending
// amount by advancing the landed mark with a CAS, so concurrent clock
// reads split it between them: a count is never lost and never landed
// twice.
func (m *GraftMetrics) bucket() *windowBucket {
	b := m.win.bucket()
	if n := claim(m.invocations.Load(), &m.landedInv); n > 0 {
		b.invocations.Add(n)
	}
	if f := claim(uint64(m.fuel.Load()), &m.landedFuel); f > 0 {
		b.fuel.Add(int64(f))
	}
	return b
}

// pending reports whether the cumulative counters hold anything the
// window ring does not.
func (m *GraftMetrics) pending() bool {
	return m.invocations.Load() > m.landedInv.Load() ||
		uint64(m.fuel.Load()) > m.landedFuel.Load()
}

// claim advances *landed to total and returns by how much, or 0 when
// another caller already landed at least that far.
func claim(total uint64, landed *atomic.Uint64) uint64 {
	for {
		l := landed.Load()
		if total <= l {
			return 0
		}
		if landed.CompareAndSwap(l, total) {
			return total - l
		}
	}
}

// SetNote stamps a free-form state label on the key ("canary",
// "incumbent", …); empty clears it. See GraftMetrics.note.
func (m *GraftMetrics) SetNote(s string) {
	if s == "" {
		m.note.Store(nil)
		return
	}
	m.note.Store(&s)
}

// Note reports the current state label, empty when unset.
func (m *GraftMetrics) Note() string {
	if p := m.note.Load(); p != nil {
		return *p
	}
	return ""
}

// Invocations reports the total invocation count.
func (m *GraftMetrics) Invocations() uint64 { return m.invocations.Load() }

// Errors reports how many invocations failed without trapping.
func (m *GraftMetrics) Errors() uint64 { return m.errors.Load() }

// Traps reports how many invocations trapped, over every kind.
func (m *GraftMetrics) Traps() uint64 {
	var n uint64
	for k := range m.traps {
		n += m.traps[k].Load()
	}
	return n
}

// TrapCount reports how many invocations trapped with kind k.
func (m *GraftMetrics) TrapCount(k mem.TrapKind) uint64 {
	if int(k) >= numTrapKinds {
		return 0
	}
	return m.traps[k].Load()
}

// FuelPreemptions reports how many invocations were preempted by fuel
// exhaustion (the §4 "extension that runs too long" case).
func (m *GraftMetrics) FuelPreemptions() uint64 { return m.traps[mem.TrapFuel].Load() }

// FuelConsumed reports cumulative fuel charged across all invocations.
func (m *GraftMetrics) FuelConsumed() int64 { return m.fuel.Load() }

// Latency exposes the sampled-latency histogram.
func (m *GraftMetrics) Latency() *Histogram { return &m.latency }

// Quarantine marks the pair as denied at dispatch (see Watchdog).
func (m *GraftMetrics) Quarantine() { m.quarantined.Store(true) }

// Unquarantine lifts a quarantine.
func (m *GraftMetrics) Unquarantine() { m.quarantined.Store(false) }

// Quarantined reports whether the pair is currently denied.
func (m *GraftMetrics) Quarantined() bool { return m.quarantined.Load() }

// ErrQuarantined is wrapped by dispatch-time denials of quarantined
// grafts.
var ErrQuarantined = errors.New("telemetry: graft quarantined by watchdog")

// Quarantined reports whether the (graft, technology) pair is on the
// watchdog's deny-list. Pairs never registered are not quarantined.
func Quarantined(graft, tech string) bool {
	key := graft + "\x00" + tech
	registry.mu.Lock()
	m := registry.byKey[key]
	registry.mu.Unlock()
	return m != nil && m.Quarantined()
}

// ClearQuarantines lifts every quarantine without touching counters.
func ClearQuarantines() {
	registry.mu.Lock()
	for _, m := range registry.byKey {
		m.quarantined.Store(false)
	}
	registry.mu.Unlock()
}

// GraftSnapshot is the JSON-friendly view of one GraftMetrics; durations
// are integer nanoseconds like every other duration the repo exports.
type GraftSnapshot struct {
	Graft           string            `json:"graft"`
	Tech            string            `json:"tech"`
	Invocations     uint64            `json:"invocations"`
	Errors          uint64            `json:"errors,omitempty"`
	Traps           map[string]uint64 `json:"traps,omitempty"`
	FuelConsumed    int64             `json:"fuel_consumed,omitempty"`
	FuelPreemptions uint64            `json:"fuel_preemptions,omitempty"`
	LatencySamples  uint64            `json:"latency_samples,omitempty"`
	LatencyP50      time.Duration     `json:"latency_p50,omitempty"`
	LatencyP95      time.Duration     `json:"latency_p95,omitempty"`
	LatencyP99      time.Duration     `json:"latency_p99,omitempty"`
	LatencyMax      time.Duration     `json:"latency_max,omitempty"`
	Quarantined     bool              `json:"quarantined,omitempty"`
	Note            string            `json:"note,omitempty"`
}

// Snapshot copies the counters into an exportable form.
func (m *GraftMetrics) Snapshot() GraftSnapshot {
	s := GraftSnapshot{
		Graft:           m.GraftName,
		Tech:            m.Tech,
		Invocations:     m.invocations.Load(),
		Errors:          m.errors.Load(),
		FuelConsumed:    m.fuel.Load(),
		FuelPreemptions: m.FuelPreemptions(),
		LatencySamples:  m.latency.Count(),
		Quarantined:     m.quarantined.Load(),
		Note:            m.Note(),
	}
	for k := 0; k < numTrapKinds; k++ {
		if n := m.traps[k].Load(); n > 0 {
			if s.Traps == nil {
				s.Traps = make(map[string]uint64)
			}
			s.Traps[mem.TrapKind(k).String()] = n
		}
	}
	if s.LatencySamples > 0 {
		s.LatencyP50 = m.latency.Quantile(0.50)
		s.LatencyP95 = m.latency.Quantile(0.95)
		s.LatencyP99 = m.latency.Quantile(0.99)
		s.LatencyMax = m.latency.Max()
	}
	return s
}

// registry holds every registered GraftMetrics, keyed by graft/tech.
var registry struct {
	mu    sync.Mutex
	byKey map[string]*GraftMetrics
}

// Register returns the metrics for the (graft, technology) pair,
// creating them on first use. Repeated loads of the same pair share one
// accumulator, so counters survive graft reloads — the bpftool-style
// "what has this program done since boot" view.
func Register(graft, tech string) *GraftMetrics {
	key := graft + "\x00" + tech
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.byKey == nil {
		registry.byKey = make(map[string]*GraftMetrics)
	}
	if m, ok := registry.byKey[key]; ok {
		return m
	}
	m := NewGraftMetrics(graft, tech)
	registry.byKey[key] = m
	return m
}

// NewGraftMetrics builds an accumulator like the ones Register hands
// out, with the current sampling interval and window geometry, but
// owned by the caller: it is not in the registry, so Metrics, the
// export surface and the watchdog never see it. Its window ring is
// allocated only when counts first land, so an accumulator that never
// records a latency, an error, or a windowed snapshot costs no ring.
func NewGraftMetrics(graft, tech string) *GraftMetrics {
	return &GraftMetrics{GraftName: graft, Tech: tech, mask: sampleMask.Load(), win: newWindows()}
}

// Metrics returns every registered accumulator, sorted by graft then
// technology for stable output.
func Metrics() []*GraftMetrics {
	registry.mu.Lock()
	out := make([]*GraftMetrics, 0, len(registry.byKey))
	for _, m := range registry.byKey {
		out = append(out, m)
	}
	registry.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].GraftName != out[j].GraftName {
			return out[i].GraftName < out[j].GraftName
		}
		return out[i].Tech < out[j].Tech
	})
	return out
}

// SnapshotAll exports every registered accumulator with at least one
// invocation.
func SnapshotAll() []GraftSnapshot {
	ms := Metrics()
	out := make([]GraftSnapshot, 0, len(ms))
	for _, m := range ms {
		if m.Invocations() == 0 {
			continue
		}
		out = append(out, m.Snapshot())
	}
	return out
}

// ResetMetrics drops every registered accumulator (primarily for tests
// and for ablation runs that compare configurations back to back).
func ResetMetrics() {
	registry.mu.Lock()
	registry.byKey = nil
	registry.mu.Unlock()
}

// String renders a one-line summary, the form kernelsim's counters view
// prints per graft.
func (s GraftSnapshot) String() string {
	return fmt.Sprintf("%s/%s: %d invocations, %d traps, p99=%s",
		s.Graft, s.Tech, s.Invocations, sumTraps(s.Traps), s.LatencyP99)
}

func sumTraps(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}
