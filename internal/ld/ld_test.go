package ld

import (
	"strings"
	"testing"

	"graftlab/internal/disk"
	"graftlab/internal/telemetry"
	"graftlab/internal/vclock"
	"graftlab/internal/workload"
)

func smallDisk() (*disk.Disk, *vclock.Clock) {
	clock := &vclock.Clock{}
	geo := disk.DefaultGeometry()
	geo.Blocks = 4096
	return disk.New(geo, clock), clock
}

func TestNativeMapperLogStructure(t *testing.T) {
	m := NewNativeMapper(256)
	for i := uint32(0); i < 40; i++ {
		p, err := m.MapWrite((i * 19) % 256)
		if err != nil {
			t.Fatal(err)
		}
		if p != i {
			t.Fatalf("write %d got physical %d", i, p)
		}
	}
}

func TestNativeMapperReadAfterWrite(t *testing.T) {
	m := NewNativeMapper(16384) // plenty of log space for 500 writes
	latest := map[uint32]uint32{}
	rng := workload.NewRNG(12)
	for i := 0; i < 500; i++ {
		lb := rng.Uint32n(128)
		p, err := m.MapWrite(lb)
		if err != nil {
			t.Fatal(err)
		}
		latest[lb] = p
		// Invariant: every previously written block reads back its
		// latest location.
		probe := rng.Uint32n(128)
		want, written := latest[probe]
		got, err := m.MapRead(probe)
		if err != nil {
			t.Fatal(err)
		}
		if written && got != want {
			t.Fatalf("block %d maps to %d, want %d", probe, got, want)
		}
		if !written && got != Unmapped {
			t.Fatalf("unwritten block %d maps to %d", probe, got)
		}
	}
}

func TestNativeMapperErrors(t *testing.T) {
	m := NewNativeMapper(32) // 2 segments
	if _, err := m.MapWrite(99); err == nil {
		t.Error("out-of-range write accepted")
	}
	if _, err := m.MapRead(99); err == nil {
		t.Error("out-of-range read accepted")
	}
	for i := uint32(0); i < 32; i++ {
		if _, err := m.MapWrite(i % 32); err != nil {
			t.Fatal(err)
		}
	}
	_, err := m.MapWrite(0)
	if err == nil || !strings.Contains(err.Error(), "log full") {
		t.Errorf("full log: %v", err)
	}
}

func TestLDBatchesWrites(t *testing.T) {
	dev, _ := smallDisk()
	l := New(dev, NewNativeMapper(dev.Geometry().Blocks), false)
	stream := workload.NewSkewed(dev.Geometry().Blocks, 5)
	const writes = 320
	for i := 0; i < writes; i++ {
		if err := l.Write(stream.Next()); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Writes != writes {
		t.Errorf("writes = %d", st.Writes)
	}
	if st.SegmentFlush != writes/SegmentBlocks {
		t.Errorf("flushes = %d, want %d", st.SegmentFlush, writes/SegmentBlocks)
	}
}

func TestLDBeatsDirectWritesOnRandomLoad(t *testing.T) {
	// The paper's justification: batching must save more time than the
	// bookkeeping costs. Compare virtual disk time for the same skewed
	// request stream.
	devLD, clockLD := smallDisk()
	l := New(devLD, NewNativeMapper(devLD.Geometry().Blocks), false)
	s1 := workload.NewSkewed(devLD.Geometry().Blocks, 77)
	const writes = 2048
	for i := 0; i < writes; i++ {
		if err := l.Write(s1.Next()); err != nil {
			t.Fatal(err)
		}
	}
	ldTime := clockLD.Now()

	devDirect, clockDirect := smallDisk()
	s2 := workload.NewSkewed(devDirect.Geometry().Blocks, 77)
	for i := 0; i < writes; i++ {
		if _, err := DirectWrite(devDirect, s2.Next()); err != nil {
			t.Fatal(err)
		}
	}
	directTime := clockDirect.Now()

	if ldTime*5 > directTime {
		t.Errorf("LD %v not clearly faster than direct %v", ldTime, directTime)
	}
}

func TestLDReads(t *testing.T) {
	dev, _ := smallDisk()
	l := New(dev, NewNativeMapper(dev.Geometry().Blocks), false)
	if err := l.Read(7); err == nil {
		t.Error("read of unwritten block accepted")
	}
	for i := 0; i < 20; i++ {
		if err := l.Write(7); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Read(7); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Reads != 1 {
		t.Errorf("reads = %d", l.Stats().Reads)
	}
}

func TestLDTimedMapper(t *testing.T) {
	dev, _ := smallDisk()
	l := New(dev, NewNativeMapper(dev.Geometry().Blocks), true)
	for i := uint32(0); i < 64; i++ {
		if err := l.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().MapTime <= 0 {
		t.Error("timed mapper recorded no time")
	}
}

// TestUntracedWriteDoesNotAllocate is the Logical Disk row of the kernel's
// untraced-site check: with the trace ring off, a write (segment flushes
// included) allocates nothing.
func TestUntracedWriteDoesNotAllocate(t *testing.T) {
	telemetry.DisableSpans()
	dev, _ := smallDisk()
	l := New(dev, NewNativeMapper(dev.Geometry().Blocks), false)
	var lblock uint32
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		if e := l.Write(lblock % 64); e != nil {
			err = e
		}
		lblock++
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%.0f allocations per untraced write, want 0", allocs)
	}
	if l.Stats().SegmentFlush == 0 {
		t.Error("no segment flush among the measured writes")
	}
}

func TestSegmentFlushSpan(t *testing.T) {
	st := telemetry.EnableSpans(256)
	if err := telemetry.SetSpanSampleEvery(1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		telemetry.DisableSpans()
		_ = telemetry.SetSpanSampleEvery(64)
	})
	dev, _ := smallDisk()
	l := New(dev, NewNativeMapper(dev.Geometry().Blocks), false)
	for i := uint32(0); i < 2*SegmentBlocks; i++ {
		if err := l.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	writes := map[telemetry.SpanID]bool{}
	var flushes []telemetry.SpanRecord
	for _, s := range st.Spans() {
		switch s.Name {
		case "ld:write":
			writes[s.ID] = true
		case "ld:segment-flush":
			flushes = append(flushes, s)
		}
	}
	if len(flushes) != 2 {
		t.Fatalf("got %d segment-flush spans, want 2", len(flushes))
	}
	for seg, f := range flushes {
		if !writes[f.Parent] || f.A != uint64(seg) || f.B != uint64(seg*SegmentBlocks) || f.C != SegmentBlocks {
			t.Errorf("flush %d = %+v, want segment %d at block %d, %d blocks, under an ld:write",
				seg, f, seg, seg*SegmentBlocks, SegmentBlocks)
		}
	}
}
