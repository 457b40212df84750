package grafts

import (
	"fmt"

	"graftlab/internal/ld"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// Graft-memory layout for the Logical Disk mapping graft.
const (
	LDSegAddr      = 0x1000 // current segment number
	LDFillAddr     = 0x1004 // blocks used in the current segment
	LDSegCountAddr = 0x1008 // total segments on the device (host-initialized)
	LDBlocksAddr   = 0x100C // device capacity in blocks (host-initialized)
	LDMapBase      = 0x2000 // mapping table: u32 per logical block
	// LDMemSize holds the mapping for the paper's 262,144-block disk:
	// 0x2000 + 4*262144 < 2 MiB.
	LDMemSize = 1 << 21
)

// LDMap is the Black Box graft: the bookkeeping of a log-structured
// Logical Disk (§3.3, §5.6). Entry points:
//
//	ld_init()            reset segment state (host fills the map table)
//	ld_write(lblock)     assign next log slot, record mapping, return pblock
//	ld_read(lblock)      return current pblock (0xFFFFFFFF if unmapped)
//
// Sixteen 4 KB blocks per 64 KB segment, as in the paper. The graft
// aborts (rather than corrupting state) on out-of-range blocks or a full
// log; the kernel recovers the trap.
var LDMap = tech.Source{
	Name: "ldmap",
	GEL: `
func ld_init() {
	st32(0x1000, 0);
	st32(0x1004, 0);
	return 0;
}

func ld_write(lblock) {
	if (lblock >= ld32(0x100c)) { abort(1); }
	var seg = ld32(0x1000);
	if (seg >= ld32(0x1008)) { abort(2); }
	var fill = ld32(0x1004);
	var p = seg * 16 + fill;
	st32(0x2000 + lblock * 4, p);
	fill = fill + 1;
	if (fill == 16) {
		fill = 0;
		st32(0x1000, seg + 1);
	}
	st32(0x1004, fill);
	return p;
}

func ld_read(lblock) {
	if (lblock >= ld32(0x100c)) { abort(1); }
	return ld32(0x2000 + lblock * 4);
}
`,
	Tcl: `
proc ld_init {} {
	st32 0x1000 0
	st32 0x1004 0
	return 0
}

proc ld_write {lblock} {
	if {$lblock >= [ld32 0x100c]} { abort 1 }
	set seg [ld32 0x1000]
	if {$seg >= [ld32 0x1008]} { abort 2 }
	set fill [ld32 0x1004]
	set p [expr {$seg * 16 + $fill}]
	st32 [expr {0x2000 + $lblock * 4}] $p
	incr fill
	if {$fill == 16} {
		set fill 0
		st32 0x1000 [expr {$seg + 1}]
	}
	st32 0x1004 $fill
	return $p
}

proc ld_read {lblock} {
	if {$lblock >= [ld32 0x100c]} { abort 1 }
	return [ld32 [expr {0x2000 + $lblock * 4}]]
}
`,
}

// GraftMapper adapts a loaded ldmap graft to the ld.Mapper seam, calling
// through resolved entry points as the kernel's block layer would.
type GraftMapper struct {
	write  tech.Handle
	read   tech.Handle
	argBuf [1]uint32
}

// NewGraftMapper initializes the graft memory for a device of blocks
// logical blocks and returns the mapper.
func NewGraftMapper(g tech.Graft, blocks uint32) (*GraftMapper, error) {
	m := g.Memory()
	need := uint64(LDMapBase) + 4*uint64(blocks)
	if need > uint64(m.Size()) {
		return nil, fmt.Errorf("grafts: ldmap for %d blocks needs %d bytes, memory has %d", blocks, need, m.Size())
	}
	m.St32U(LDSegCountAddr, blocks/ld.SegmentBlocks)
	m.St32U(LDBlocksAddr, blocks)
	fillUnmapped(m, blocks)
	if _, err := g.Invoke("ld_init"); err != nil {
		return nil, err
	}
	return &GraftMapper{
		write: tech.Resolve(g, "ld_write"),
		read:  tech.Resolve(g, "ld_read"),
	}, nil
}

func fillUnmapped(m *mem.Memory, blocks uint32) {
	for i := uint32(0); i < blocks; i++ {
		m.St32U(LDMapBase+4*i, ld.Unmapped)
	}
}

// MapWrite implements ld.Mapper.
func (gm *GraftMapper) MapWrite(lblock uint32) (uint32, error) {
	gm.argBuf[0] = lblock
	v, _, err := gm.write(telemetry.SpanCtx{}, gm.argBuf[:])
	return v, err
}

// MapRead implements ld.Mapper.
func (gm *GraftMapper) MapRead(lblock uint32) (uint32, error) {
	gm.argBuf[0] = lblock
	v, _, err := gm.read(telemetry.SpanCtx{}, gm.argBuf[:])
	return v, err
}

var _ ld.Mapper = (*GraftMapper)(nil)
