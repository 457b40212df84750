// Package ld implements the Logical Disk of the paper's Black Box graft
// benchmark (§3.3, §5.6), after de Jonge et al. [DEJON93]: a layer between
// the filesystem and the physical disk that accepts writes to logical
// blocks, batches them into physically contiguous segments (converting
// random writes into sequential ones), and maintains the logical→physical
// mapping. The mapping bookkeeping is the black-box function that can be
// delegated to a graft; the Mapper interface is the seam.
//
// As in the paper, the simulation holds all data structures in main
// memory, uses a 1 GB disk with 4 KB blocks and 64 KB (16-block)
// segments, and runs without a cleaner for exactly one disk's worth of
// writes.
package ld

import (
	"fmt"
	"time"

	"graftlab/internal/disk"
	"graftlab/internal/telemetry"
)

// Unmapped marks a logical block with no physical location yet.
const Unmapped = uint32(0xFFFFFFFF)

// SegmentBlocks is the paper's segment size: 64 KB of 4 KB blocks.
const SegmentBlocks = 16

// Mapper is the bookkeeping black box: translate a logical write into a
// physical block (assigning the next slot in the current segment and
// recording the mapping), and translate reads. Implementations are the
// native Go version below and the graft-backed version in package grafts.
type Mapper interface {
	// MapWrite assigns a physical block for a write to lblock and
	// records the mapping. It returns the physical block.
	MapWrite(lblock uint32) (uint32, error)
	// MapRead returns the physical block holding lblock, or Unmapped.
	MapRead(lblock uint32) (uint32, error)
}

// NativeMapper is the in-kernel C-equivalent implementation: an array
// mapping table and a segment fill counter.
type NativeMapper struct {
	table    []uint32
	seg      uint32 // current segment number
	fill     uint32 // blocks used in current segment
	segCount uint32 // total segments on the device
}

// NewNativeMapper builds a mapper for a device of blocks logical blocks.
func NewNativeMapper(blocks uint32) *NativeMapper {
	t := make([]uint32, blocks)
	for i := range t {
		t[i] = Unmapped
	}
	return &NativeMapper{table: t, segCount: blocks / SegmentBlocks}
}

// MapWrite implements Mapper.
func (m *NativeMapper) MapWrite(lblock uint32) (uint32, error) {
	if lblock >= uint32(len(m.table)) {
		return 0, fmt.Errorf("ld: logical block %d out of range %d", lblock, len(m.table))
	}
	if m.seg >= m.segCount {
		return 0, fmt.Errorf("ld: log full after %d segments (no cleaner)", m.segCount)
	}
	p := m.seg*SegmentBlocks + m.fill
	m.table[lblock] = p
	m.fill++
	if m.fill == SegmentBlocks {
		m.fill = 0
		m.seg++
	}
	return p, nil
}

// MapRead implements Mapper.
func (m *NativeMapper) MapRead(lblock uint32) (uint32, error) {
	if lblock >= uint32(len(m.table)) {
		return 0, fmt.Errorf("ld: logical block %d out of range %d", lblock, len(m.table))
	}
	return m.table[lblock], nil
}

// Stats counts logical-disk activity.
type Stats struct {
	Writes       uint64
	Reads        uint64
	SegmentFlush uint64
	MapTime      time.Duration // wall time spent in the Mapper (the graft)
	DiskTime     time.Duration // virtual disk time
}

// LD is the log-structured layer over a simulated disk.
type LD struct {
	dev    *disk.Disk
	mapper Mapper
	fill   uint32 // blocks buffered in the open segment
	seg    uint32 // physical segment the buffer will flush to
	stats  Stats
	timed  bool
}

// New builds a logical disk over dev using mapper. When timed is true,
// Mapper calls are wall-clock timed into Stats.MapTime (the quantity
// Table 6 reports).
func New(dev *disk.Disk, mapper Mapper, timed bool) *LD {
	return &LD{dev: dev, mapper: mapper, timed: timed}
}

// Stats returns a copy of the counters.
func (l *LD) Stats() Stats { return l.stats }

// Write accepts a write to lblock: bookkeeping through the Mapper, then a
// segment flush to the device whenever 16 blocks have accumulated. When
// causal tracing samples this write, the remap call is recorded under a
// "ld:write" root span, with the segment flush as a sibling
// "ld:segment-flush" child carrying the segment, its first physical
// block and the blocks written.
func (l *LD) Write(lblock uint32) error {
	var p uint32
	var err error
	root := telemetry.RootSpan("ld:write", "ld")
	ms := telemetry.ChildSpan(root.Ctx(), "ld:remap", "ld")
	if l.timed {
		t0 := time.Now()
		p, err = l.mapper.MapWrite(lblock)
		l.stats.MapTime += time.Since(t0)
	} else {
		p, err = l.mapper.MapWrite(lblock)
	}
	if ms.Active() {
		ms.End(uint64(lblock), uint64(p), 0)
	}
	if err != nil {
		if root.Active() {
			root.End(uint64(lblock), 0, 1)
		}
		return err
	}
	l.stats.Writes++
	l.seg = p / SegmentBlocks
	l.fill++
	if l.fill == SegmentBlocks {
		fs := telemetry.ChildSpan(root.Ctx(), "ld:segment-flush", "ld")
		d, err := l.dev.Write(l.seg*SegmentBlocks, SegmentBlocks)
		if err != nil {
			if root.Active() {
				root.End(uint64(lblock), 0, 1)
			}
			return err
		}
		if fs.Active() {
			fs.End(uint64(l.seg), uint64(l.seg*SegmentBlocks), SegmentBlocks)
		}
		l.stats.DiskTime += d
		l.stats.SegmentFlush++
		l.fill = 0
	}
	if root.Active() {
		root.End(uint64(lblock), uint64(p), 0)
	}
	return nil
}

// Read services a read of lblock from its current physical location.
func (l *LD) Read(lblock uint32) error {
	var p uint32
	var err error
	if l.timed {
		t0 := time.Now()
		p, err = l.mapper.MapRead(lblock)
		l.stats.MapTime += time.Since(t0)
	} else {
		p, err = l.mapper.MapRead(lblock)
	}
	if err != nil {
		return err
	}
	if p == Unmapped {
		return fmt.Errorf("ld: read of unwritten logical block %d", lblock)
	}
	d, err := l.dev.Read(p, 1)
	if err != nil {
		return err
	}
	l.stats.DiskTime += d
	l.stats.Reads++
	return nil
}

// DirectWrite is the baseline without the logical-disk layer: every write
// goes to its logical address, paying the random-access cost. The paper's
// break-even test compares this against LD.Write plus mapping overhead.
func DirectWrite(dev *disk.Disk, lblock uint32) (time.Duration, error) {
	return dev.Write(lblock, 1)
}
