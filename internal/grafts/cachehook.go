package grafts

import (
	"graftlab/internal/kernel"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// Graft-memory layout for the buffer-cache hook.
const (
	// BCCountAddr holds the number of cached blocks.
	BCCountAddr = 0x1000
	// BCBase is the cached-block array in use order (LRU first).
	BCBase = 0x1010
	// BCMaxBlocks bounds the marshaled cache contents.
	BCMaxBlocks = 4096
	// BCPinCountAddr / BCPinBase hold the application's pinned set.
	BCPinCountAddr = 0x8000
	BCPinBase      = 0x8010
	// BCMaxPins bounds the pinned set.
	BCMaxPins = 256
	// BCMemSize sizes the graft memory.
	BCMemSize = 1 << 16
	// BCDecline defers to the kernel's built-in policy.
	BCDecline = 0xFFFFFFFF
)

// CacheHook is the buffer-cache counterpart of the page-eviction graft:
// §2's Cao et al. domain, solved the general way the paper argues for.
// Entry:
//
//	pickvictim(count) -> index into the use-order array, or BCDecline
//
// This policy evicts the least recently used block that is not on the
// application's pinned list.
var CacheHook = tech.Source{
	Name: "cachehook",
	GEL: `
func pinned(block) {
	var n = ld32(0x8000);
	var i = 0;
	while (i < n) {
		if (ld32(0x8010 + i * 4) == block) { return 1; }
		i = i + 1;
	}
	return 0;
}

func pickvictim(count) {
	var i = 0;
	while (i < count) {
		if (!pinned(ld32(0x1010 + i * 4))) { return i; }
		i = i + 1;
	}
	return 0xFFFFFFFF;
}
`,
	Tcl: `
proc pinned {block} {
	set n [ld32 0x8000]
	set i 0
	while {$i < $n} {
		if {[ld32 [expr {0x8010 + $i * 4}]] == $block} { return 1 }
		incr i
	}
	return 0
}
proc pickvictim {count} {
	set i 0
	while {$i < $count} {
		if {![pinned [ld32 [expr {0x1010 + $i * 4}]]]} { return $i }
		incr i
	}
	return 0xFFFFFFFF
}
`,
	Compiled: newCompiledCacheHook,
	Hipec: map[string]string{
		"pickvictim": `
	; r0 = cached block count; blocks at 0x1010; pins at 0x8000/0x8010
		movi r9, 0x8000
		ldw  r9, [r9+0]      ; pin count
		movi r1, 0           ; i over cached blocks
		movi r4, 0x1010      ; block pointer
	outer:
		jge  r1, r0, none
		ldw  r5, [r4+0]      ; candidate block
		movi r6, 0x8010      ; pin pointer
		movi r7, 0           ; j over pins
	inner:
		jge  r7, r9, notpinned
		ldw  r8, [r6+0]
		jeq  r8, r5, pinned
		addi r7, r7, 1
		addi r6, r6, 4
		jmp  inner
	notpinned:
		ret  r1
	pinned:
		addi r1, r1, 1
		addi r4, r4, 4
		jmp  outer
	none:
		movi r1, 0xFFFFFFFF
		ret  r1
`,
	},
}

func newCompiledCacheHook(cfg mem.Config, m *mem.Memory) (tech.Graft, error) {
	g := NewCompiledGraft(m)
	d := m.Data
	mask := m.Mask()
	var ld func([]byte, uint32) uint32
	switch {
	case cfg.Policy == mem.PolicyChecked && cfg.NilCheck:
		ld = ld32nil
	case cfg.Policy == mem.PolicyChecked:
		ld = ld32chk
	case cfg.Policy == mem.PolicySandbox && cfg.ReadProtect:
		ld = func(d []byte, a uint32) uint32 { return ld32sfi(d, a, mask) }
	default:
		ld = le32
	}
	pinned := func(block uint32) bool {
		n := ld(d, BCPinCountAddr)
		for i := uint32(0); i < n; i++ {
			if ld(d, BCPinBase+i*4) == block {
				return true
			}
		}
		return false
	}
	g.Register("pickvictim", 1, func(a []uint32) uint32 {
		count := a[0]
		for i := uint32(0); i < count; i++ {
			if !pinned(ld(d, BCBase+i*4)) {
				return i
			}
		}
		return BCDecline
	})
	return g, nil
}

// PinSet is the application side: the pinned blocks, mirrored into graft
// memory.
type PinSet struct {
	m    *mem.Memory
	pins []uint32
}

// NewPinSet binds a pin set to graft memory.
func NewPinSet(m *mem.Memory) *PinSet {
	p := &PinSet{m: m}
	p.Set(nil)
	return p
}

// Set replaces the pinned blocks.
func (p *PinSet) Set(blocks []uint32) {
	if len(blocks) > BCMaxPins {
		blocks = blocks[:BCMaxPins]
	}
	p.pins = append(p.pins[:0], blocks...)
	p.m.St32U(BCPinCountAddr, uint32(len(p.pins)))
	for i, b := range p.pins {
		p.m.St32U(uint32(BCPinBase+4*i), b)
	}
}

// Contains reports whether block is pinned.
func (p *PinSet) Contains(block uint32) bool {
	for _, b := range p.pins {
		if b == block {
			return true
		}
	}
	return false
}

// NewGraftCacheHook adapts a loaded cachehook graft to the buffer cache:
// it marshals the use-order array before each decision and maps the
// returned index back to a block.
func NewGraftCacheHook(g tech.Graft) kernel.CacheHook {
	m := g.Memory()
	call := tech.Resolve(g, "pickvictim")
	args := make([]uint32, 1)
	return func(order []uint32) uint32 {
		n := len(order)
		if n > BCMaxBlocks {
			n = BCMaxBlocks
		}
		m.St32U(BCCountAddr, uint32(n))
		for i := 0; i < n; i++ {
			m.St32U(uint32(BCBase+4*i), order[i])
		}
		args[0] = uint32(n)
		v, _, err := call(telemetry.SpanCtx{}, args)
		if err != nil || v == BCDecline || v >= uint32(n) {
			return kernel.NoBlock
		}
		return order[v]
	}
}
