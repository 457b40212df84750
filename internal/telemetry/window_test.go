package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func newTestWindows(width time.Duration, buckets int, clk *fakeClock) *Windows {
	return &Windows{
		width:   int64(width),
		buckets: buckets,
		now:     clk.now,
	}
}

// Bare-ring recorders: GraftMetrics lands its counts through bucket(),
// these drive a ring with no accumulator behind it.
func (w *Windows) addInvocations(n uint64) { w.bucket().invocations.Add(n) }

func (w *Windows) recordLatency(d time.Duration) { w.bucket().lat.Record(d) }

func (w *Windows) addFuel(n int64) { w.bucket().fuel.Add(n) }

func TestSetWindowConfigValidates(t *testing.T) {
	for _, bad := range []WindowConfig{
		{Width: 0, Buckets: 8},
		{Width: -time.Second, Buckets: 8},
		{Width: time.Second, Buckets: 1},
		{Width: time.Second, Buckets: 0},
	} {
		if err := SetWindowConfig(bad); err == nil {
			t.Errorf("SetWindowConfig(%+v) accepted", bad)
		}
	}
	prev := WindowConfig{
		Width:   time.Duration(windowWidth.Load()),
		Buckets: int(windowBuckets.Load()),
	}
	if err := SetWindowConfig(WindowConfig{Width: time.Second, Buckets: 4}); err != nil {
		t.Fatal(err)
	}
	if err := SetWindowConfig(prev); err != nil {
		t.Fatal(err)
	}
}

func TestWindowEmptyAndIdleBuckets(t *testing.T) {
	clk := newFakeClock(time.Hour)
	w := newTestWindows(time.Second, 8, clk)

	// A never-written ring snapshots to zeroes, not garbage.
	s := w.snapshot(5 * time.Second)
	if s.Invocations != 0 || s.Rate != 0 || s.P99 != 0 {
		t.Fatalf("empty ring snapshot = %+v", s)
	}
	// Zero and negative windows are inert.
	if s := w.snapshot(0); s.Invocations != 0 || s.Covered != 0 {
		t.Errorf("zero window snapshot = %+v", s)
	}

	// Activity, then idle gaps: only the active slices contribute.
	w.addInvocations(10)
	clk.advance(3 * time.Second) // two empty slices between activity and now
	w.addInvocations(5)
	s = w.snapshot(5 * time.Second)
	if s.Invocations != 15 {
		t.Fatalf("snapshot across idle gaps = %d invocations, want 15", s.Invocations)
	}
	// A window too short to reach the earlier slice excludes it.
	if s := w.snapshot(2 * time.Second); s.Invocations != 5 {
		t.Fatalf("short window = %d invocations, want 5", s.Invocations)
	}
}

func TestWindowRotationRecyclesSlots(t *testing.T) {
	clk := newFakeClock(time.Hour)
	w := newTestWindows(time.Second, 4, clk)

	// Fill every slot, then wrap: the recycled slot must forget its old
	// slice, and a snapshot of the full span must only see the ring's
	// retained history.
	for i := 0; i < 6; i++ {
		w.addInvocations(1)
		clk.advance(time.Second)
	}
	// 6 slices written into 4 slots: slices 0 and 1 were recycled. The
	// clock now sits at the start of slice 6 (empty), so the span covers
	// slices 3..6.
	s := w.snapshot(w.Span())
	if s.Invocations != 3 {
		t.Fatalf("wrapped ring snapshot = %d invocations, want 3 (slices 3..5)", s.Invocations)
	}
	// Asking for more than the span clamps rather than double-counting.
	if s := w.snapshot(time.Hour); s.Invocations != 3 {
		t.Fatalf("over-span snapshot = %d invocations, want 3", s.Invocations)
	}
}

func TestWindowSnapshotSpanningRotation(t *testing.T) {
	clk := newFakeClock(time.Hour)
	w := newTestWindows(time.Second, 8, clk)

	w.addInvocations(7)
	w.recordLatency(100 * time.Microsecond)
	clk.advance(1500 * time.Millisecond) // crosses one bucket boundary
	w.addInvocations(3)
	w.recordLatency(200 * time.Microsecond)

	// A 2s window spans the rotation: both slices contribute, and
	// Covered reflects one complete slice plus the current partial one.
	s := w.snapshot(2 * time.Second)
	if s.Invocations != 10 || s.LatencySamples != 2 {
		t.Fatalf("spanning snapshot = %+v", s)
	}
	want := time.Second + 500*time.Millisecond
	if s.Covered != want {
		t.Errorf("Covered = %v, want %v", s.Covered, want)
	}
	if s.Rate <= 0 {
		t.Errorf("Rate = %v, want positive", s.Rate)
	}
}

// TestWindowClockStall pins the monotonic-stall contract: when the
// clock does not advance between writes and snapshots, rates must stay
// finite and non-negative — never a divide-by-zero, never negative.
func TestWindowClockStall(t *testing.T) {
	// Stall exactly on a bucket boundary, the worst case: now%width == 0
	// so the partial-bucket term contributes nothing.
	clk := newFakeClock(time.Hour)
	w := newTestWindows(time.Second, 8, clk)
	w.addInvocations(100)
	w.addFuel(1000)

	for _, d := range []time.Duration{time.Second, 500 * time.Millisecond} {
		s := w.snapshot(d)
		if s.Invocations != 100 {
			t.Fatalf("stalled snapshot(%v) = %d invocations, want 100", d, s.Invocations)
		}
		if s.Covered < 1 {
			t.Errorf("snapshot(%v).Covered = %v, want >= 1ns", d, s.Covered)
		}
		if s.Rate < 0 || s.FuelPerSec < 0 {
			t.Errorf("snapshot(%v) produced negative rates: %+v", d, s)
		}
	}
}

// TestWindowConcurrentRecordDuringRotation hammers the rotation CAS:
// writers race across bucket boundaries while the clock advances, and
// no increment may be lost to a concurrent zero() — the full-span
// snapshot at the end must conserve the total.
func TestWindowConcurrentRecordDuringRotation(t *testing.T) {
	clk := newFakeClock(time.Hour)
	w := newTestWindows(time.Millisecond, 64, clk)

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				w.addInvocations(1)
				if i%64 == 0 {
					// Push the clock forward so rotations happen while
					// other writers are mid-record.
					clk.advance(time.Millisecond / 4)
				}
			}
		}()
	}
	wg.Wait()

	// Total slices advanced: writers*perWriter/64 quarter-widths ≈ 156
	// slices — more than the 64-slot ring, so some history was recycled.
	// Conservation is therefore checked against the retained span only:
	// every increment recorded into a slice still in the ring must
	// survive. Recompute the span's total by walking live buckets.
	var retained uint64
	cur := clk.now() / w.width
	ring := w.slots()
	for i := range ring {
		b := &ring[i]
		e := b.epoch.Load()
		if e <= 0 {
			continue
		}
		if cur-(e-1) < int64(len(ring)) {
			retained += b.invocations.Load()
		}
	}
	s := w.snapshot(w.Span())
	if s.Invocations != retained {
		t.Fatalf("snapshot = %d invocations, live buckets hold %d", s.Invocations, retained)
	}
	if retained == 0 {
		t.Fatal("no invocations retained; rotation recycled everything (test geometry broken)")
	}
}

// TestWindowWriterBehindRotation pins the stale-writer rule: a writer
// whose clock reading lost a race with a newer rotation records into
// the newer bucket instead of resurrecting the old epoch.
func TestWindowWriterBehindRotation(t *testing.T) {
	clk := newFakeClock(time.Hour)
	w := newTestWindows(time.Second, 4, clk)

	w.addInvocations(1) // slice 0
	// Simulate a racing rotation: another writer at slice 4 recycles
	// slot 0 (4 % 4 == 0).
	clk.advance(4 * time.Second)
	w.addInvocations(1) // slice 4, same slot, rotates it

	// A stale writer with a slice-0 clock reading must not clobber the
	// slot's newer epoch.
	clk.ns.Store(int64(time.Hour)) // rewind to slice 0
	b := w.bucket()
	newer := (int64(time.Hour)+4*int64(time.Second))/w.width + 1
	if got := b.epoch.Load(); got != newer {
		t.Fatalf("stale writer rotated the slot back: epoch = %d, want %d", got, newer)
	}
	b.invocations.Add(1)
	clk.ns.Store(int64(time.Hour + 4*time.Second))
	if s := w.snapshot(time.Second); s.Invocations != 2 {
		t.Fatalf("current slice = %d invocations, want 2 (rotated write + stale write)", s.Invocations)
	}
}

func TestGraftMetricsWindow(t *testing.T) {
	ResetMetrics()
	t.Cleanup(func() { ResetMetrics() })

	clk := newFakeClock(time.Hour)
	m := registerWindowed(t, "winview", "bytecode",
		WindowConfig{Width: time.Second, Buckets: 16}, clk)
	m.SetNote("canary")
	m.Quarantine()
	m.AddInvocations(200)
	m.AddFuel(4000)
	m.RecordLatency(time.Millisecond)
	m.RecordError(fuelTrap())
	clk.advance(500 * time.Millisecond)

	s := m.Window(2 * time.Second)
	if s.Graft != "winview" || s.Tech != "bytecode" {
		t.Fatalf("identity = %s/%s", s.Graft, s.Tech)
	}
	if !s.Quarantined || s.Note != "canary" {
		t.Errorf("state flags = quarantined=%v note=%q", s.Quarantined, s.Note)
	}
	if s.Invocations != 200 || s.Traps != 1 || s.Preempts != 1 || s.Fuel != 4000 {
		t.Errorf("counters = %+v", s)
	}
	if s.PreemptRate != 1.0/200 {
		t.Errorf("PreemptRate = %v", s.PreemptRate)
	}
	if s.P99 == 0 || s.Max < time.Millisecond/2 {
		t.Errorf("latency stats = p99=%v max=%v", s.P99, s.Max)
	}
	if m.WindowSpan() != 16*time.Second {
		t.Errorf("WindowSpan = %v", m.WindowSpan())
	}

	// The snapshot is JSON-exportable with nanosecond durations.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back["graft"] != "winview" || back["invocations"] != float64(200) {
		t.Errorf("JSON round-trip = %v", back)
	}
}

func TestWindowAll(t *testing.T) {
	ResetMetrics()
	t.Cleanup(func() { ResetMetrics() })

	clk := newFakeClock(time.Hour)
	active := registerWindowed(t, "active", "bytecode",
		WindowConfig{Width: time.Second, Buckets: 8}, clk)
	Register("silent", "script") // zero lifetime + zero window: omitted
	idle := registerWindowed(t, "idle", "native",
		WindowConfig{Width: time.Second, Buckets: 8}, clk)

	active.AddInvocations(10)
	idle.AddInvocations(10)       // lifetime activity...
	clk.advance(20 * time.Second) // ...that ages out of idle's ring
	active.AddInvocations(5)

	all := WindowAll(2 * time.Second)
	if len(all) != 2 {
		t.Fatalf("WindowAll returned %d keys, want 2: %+v", len(all), all)
	}
	// Sorted like Metrics: by graft then tech.
	if all[0].Graft != "active" || all[1].Graft != "idle" {
		t.Fatalf("order = %s, %s", all[0].Graft, all[1].Graft)
	}
	if all[0].Invocations != 5 {
		t.Errorf("active window = %d invocations, want 5", all[0].Invocations)
	}
	// A key with lifetime history but an empty window still appears —
	// a drained graft goes quiet, it does not vanish.
	if all[1].Invocations != 0 {
		t.Errorf("idle window = %d invocations, want 0", all[1].Invocations)
	}
}

// TestCountLandsAtNextClockRead pins the clock-free count: Count reads
// no clock and allocates no ring; the pending invocations and fuel land
// in the bucket current at the key's next clock read — here a windowed
// snapshot, then an error — exactly once.
func TestCountLandsAtNextClockRead(t *testing.T) {
	clk := newFakeClock(time.Hour)
	m := NewGraftMetrics("counted", "bytecode")
	m.win.now = clk.now
	for i := 0; i < 10; i++ {
		m.Count(3)
	}
	if m.win.ring.Load() != nil {
		t.Fatal("Count allocated the window ring")
	}
	if m.Invocations() != 10 || m.FuelConsumed() != 30 {
		t.Fatalf("cumulative = %d invocations, %d fuel", m.Invocations(), m.FuelConsumed())
	}
	// Counted long ago, read now: the counts land in the current bucket.
	clk.advance(time.Hour)
	for i := 0; i < 2; i++ {
		s := m.Window(time.Second)
		if s.Invocations != 10 || s.Fuel != 30 {
			t.Fatalf("snapshot %d = %d invocations, %d fuel; want 10 and 30", i, s.Invocations, s.Fuel)
		}
	}
	m.Count(0)
	m.RecordError(fuelTrap())
	clk.advance(2 * DefaultWindowConfig.Width)
	if s := m.Window(DefaultWindowConfig.Width); s.Invocations != 0 {
		t.Fatalf("landed counts leaked into a later slice: %+v", s)
	}
	if s := m.Window(3 * DefaultWindowConfig.Width); s.Invocations != 11 || s.Preempts != 1 {
		t.Fatalf("window = %d invocations, %d preempts; want 11 and 1", s.Invocations, s.Preempts)
	}
}

// TestCountConcurrentLandingConserves races counters against clock
// reads: however the landings interleave, the ring ends up holding each
// count exactly once. Run it under -race: the detector's scheduling
// perturbation is what widens the claim window enough to catch a
// landing that is not a CAS.
func TestCountConcurrentLandingConserves(t *testing.T) {
	m := NewGraftMetrics("racing", "bytecode")
	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Every count is followed by a clock read, so landers
				// contend on the landed marks as hard as they can.
				m.Count(1)
				if g%2 == 0 {
					m.RecordLatency(time.Microsecond)
				} else {
					m.Window(time.Minute)
				}
			}
		}(g)
	}
	wg.Wait()
	s := m.Window(time.Minute)
	if want := uint64(writers * perWriter); s.Invocations != want || s.Fuel != int64(want) {
		t.Fatalf("window = %d invocations, %d fuel; want %d of each", s.Invocations, s.Fuel, want)
	}
}
