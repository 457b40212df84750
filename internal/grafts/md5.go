package grafts

import (
	"fmt"

	"graftlab/internal/kernel"
	"graftlab/internal/md5x"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// Graft-memory layout for the MD5 stream graft.
const (
	MDStateAddr = 0x1000 // 4 u32: a, b, c, d
	MDLenLoAddr = 0x1010 // bit length, low word
	MDLenHiAddr = 0x1014 // bit length, high word
	MDTailCount = 0x1018 // bytes buffered in the tail block
	MDTailBuf   = 0x1040 // 64-byte partial-block buffer
	MDKAddr     = 0x1100 // 64 u32 sine constants (host-initialized)
	MDSAddr     = 0x1300 // 16 u32 rotation table (host-initialized)
	MDOutAddr   = 0x1400 // 16-byte digest output
	MDBufAddr   = 0x2000 // host-fed data window
	MDMemSize   = 1 << 17
	// MDBufCap is the largest chunk the host may feed per update call.
	MDBufCap = MDMemSize - MDBufAddr
)

// MD5 is the Stream graft: a complete streaming implementation of RFC
// 1321 (§3.2, §5.5). Entry points:
//
//	md5_init()                 reset state
//	md5_update(addr, len)      absorb len bytes at addr
//	md5_final(out)             pad, write 16-byte digest at out
//
// The algorithm is the loop-rolled RFC formulation: per step i, auxiliary
// function F/G/H/I, message index g(i), constant K[i], rotation
// S[(i/16)*4 + i%4]. The K and S tables are marshaled into graft memory
// by the host (SetupMD5Memory).
var MD5 = tech.Source{
	Name: "md5",
	GEL: `
// md5_transform absorbs one 64-byte block at block.
func md5_transform(block) {
	var oa = ld32(0x1000);
	var ob = ld32(0x1004);
	var oc = ld32(0x1008);
	var od = ld32(0x100c);
	var a = oa;
	var b = ob;
	var c = oc;
	var d = od;
	var i = 0;
	while (i < 64) {
		var f = 0;
		var g = 0;
		if (i < 16) {
			f = (b & c) | (~b & d);
			g = i;
		} else if (i < 32) {
			f = (d & b) | (~d & c);
			g = (5 * i + 1) % 16;
		} else if (i < 48) {
			f = b ^ c ^ d;
			g = (3 * i + 5) % 16;
		} else {
			f = c ^ (b | ~d);
			g = (7 * i) % 16;
		}
		f = f + a + ld32(0x1100 + i * 4) + ld32(block + g * 4);
		a = d;
		d = c;
		c = b;
		b = b + rotl(f, ld32(0x1300 + ((i / 16) * 4 + i % 4) * 4));
		i = i + 1;
	}
	st32(0x1000, oa + a);
	st32(0x1004, ob + b);
	st32(0x1008, oc + c);
	st32(0x100c, od + d);
	return 0;
}

func md5_init() {
	st32(0x1000, 0x67452301);
	st32(0x1004, 0xefcdab89);
	st32(0x1008, 0x98badcfe);
	st32(0x100c, 0x10325476);
	st32(0x1010, 0);
	st32(0x1014, 0);
	st32(0x1018, 0);
	return 0;
}

// md5_addlen adds nbytes to the 64-bit bit counter.
func md5_addlen(nbytes) {
	var lo = ld32(0x1010);
	var nlo = lo + nbytes * 8;
	if (nlo < lo) { st32(0x1014, ld32(0x1014) + 1); }
	st32(0x1014, ld32(0x1014) + (nbytes >> 29));
	st32(0x1010, nlo);
	return 0;
}

func md5_update(addr, len) {
	md5_addlen(len);
	var tc = ld32(0x1018);
	if (tc != 0) {
		while (tc < 64 && len != 0) {
			st8(0x1040 + tc, ld8(addr));
			tc = tc + 1;
			addr = addr + 1;
			len = len - 1;
		}
		if (tc == 64) {
			md5_transform(0x1040);
			tc = 0;
		}
		st32(0x1018, tc);
	}
	while (len >= 64) {
		md5_transform(addr);
		addr = addr + 64;
		len = len - 64;
	}
	while (len != 0) {
		st8(0x1040 + tc, ld8(addr));
		tc = tc + 1;
		addr = addr + 1;
		len = len - 1;
	}
	st32(0x1018, tc);
	return 0;
}

func md5_final(out) {
	var lenlo = ld32(0x1010);
	var lenhi = ld32(0x1014);
	var tc = ld32(0x1018);
	st8(0x1040 + tc, 0x80);
	tc = tc + 1;
	if (tc > 56) {
		while (tc < 64) { st8(0x1040 + tc, 0); tc = tc + 1; }
		md5_transform(0x1040);
		tc = 0;
	}
	while (tc < 56) { st8(0x1040 + tc, 0); tc = tc + 1; }
	st32(0x1040 + 56, lenlo);
	st32(0x1040 + 60, lenhi);
	md5_transform(0x1040);
	st32(out, ld32(0x1000));
	st32(out + 4, ld32(0x1004));
	st32(out + 8, ld32(0x1008));
	st32(out + 12, ld32(0x100c));
	return 0;
}
`,
	Tcl: `
proc md5_transform {block} {
	set oa [ld32 0x1000]
	set ob [ld32 0x1004]
	set oc [ld32 0x1008]
	set od [ld32 0x100c]
	set a $oa
	set b $ob
	set c $oc
	set d $od
	set i 0
	while {$i < 64} {
		if {$i < 16} {
			set f [expr {($b & $c) | (~$b & $d)}]
			set g $i
		} elseif {$i < 32} {
			set f [expr {($d & $b) | (~$d & $c)}]
			set g [expr {(5 * $i + 1) % 16}]
		} elseif {$i < 48} {
			set f [expr {$b ^ $c ^ $d}]
			set g [expr {(3 * $i + 5) % 16}]
		} else {
			set f [expr {$c ^ ($b | ~$d)}]
			set g [expr {(7 * $i) % 16}]
		}
		set f [expr {$f + $a + [ld32 [expr {0x1100 + $i * 4}]] + [ld32 [expr {$block + $g * 4}]]}]
		set a $d
		set d $c
		set c $b
		set s [ld32 [expr {0x1300 + (($i / 16) * 4 + $i % 4) * 4}]]
		set b [expr {$b + (($f << $s) | ($f >> (32 - $s)))}]
		incr i
	}
	st32 0x1000 [expr {$oa + $a}]
	st32 0x1004 [expr {$ob + $b}]
	st32 0x1008 [expr {$oc + $c}]
	st32 0x100c [expr {$od + $d}]
	return 0
}

proc md5_init {} {
	st32 0x1000 0x67452301
	st32 0x1004 0xefcdab89
	st32 0x1008 0x98badcfe
	st32 0x100c 0x10325476
	st32 0x1010 0
	st32 0x1014 0
	st32 0x1018 0
	return 0
}

proc md5_addlen {nbytes} {
	set lo [ld32 0x1010]
	set nlo [expr {$lo + $nbytes * 8}]
	if {$nlo < $lo} { st32 0x1014 [expr {[ld32 0x1014] + 1}] }
	st32 0x1014 [expr {[ld32 0x1014] + ($nbytes >> 29)}]
	st32 0x1010 $nlo
	return 0
}

proc md5_update {addr len} {
	md5_addlen $len
	set tc [ld32 0x1018]
	if {$tc != 0} {
		while {$tc < 64 && $len != 0} {
			st8 [expr {0x1040 + $tc}] [ld8 $addr]
			incr tc
			incr addr
			set len [expr {$len - 1}]
		}
		if {$tc == 64} {
			md5_transform 0x1040
			set tc 0
		}
		st32 0x1018 $tc
	}
	while {$len >= 64} {
		md5_transform $addr
		set addr [expr {$addr + 64}]
		set len [expr {$len - 64}]
	}
	while {$len != 0} {
		st8 [expr {0x1040 + $tc}] [ld8 $addr]
		incr tc
		incr addr
		set len [expr {$len - 1}]
	}
	st32 0x1018 $tc
	return 0
}

proc md5_final {out} {
	set lenlo [ld32 0x1010]
	set lenhi [ld32 0x1014]
	set tc [ld32 0x1018]
	st8 [expr {0x1040 + $tc}] 0x80
	incr tc
	if {$tc > 56} {
		while {$tc < 64} { st8 [expr {0x1040 + $tc}] 0; incr tc }
		md5_transform 0x1040
		set tc 0
	}
	while {$tc < 56} { st8 [expr {0x1040 + $tc}] 0; incr tc }
	st32 [expr {0x1040 + 56}] $lenlo
	st32 [expr {0x1040 + 60}] $lenhi
	md5_transform 0x1040
	st32 $out [ld32 0x1000]
	st32 [expr {$out + 4}] [ld32 0x1004]
	st32 [expr {$out + 8}] [ld32 0x1008]
	st32 [expr {$out + 12}] [ld32 0x100c]
	return 0
}
`,
}

// SetupMD5Memory marshals the K and S tables into graft memory; call once
// after allocating the memory, before md5_init.
func SetupMD5Memory(m *mem.Memory) {
	for i, k := range md5x.K {
		m.St32U(uint32(MDKAddr+4*i), k)
	}
	for i, s := range md5x.S {
		m.St32U(uint32(MDSAddr+4*i), s)
	}
}

// MD5Graft is the host adapter: a hash-like API over a loaded md5 graft,
// calling its three entries through resolved handles with an argument
// buffer it owns.
type MD5Graft struct {
	m                    *mem.Memory
	init, update, finish tech.Handle
	args                 [2]uint32
}

// NewMD5Graft prepares tables and initializes state in g's memory.
func NewMD5Graft(g tech.Graft) (*MD5Graft, error) {
	h := &MD5Graft{
		m:      g.Memory(),
		init:   tech.Resolve(g, "md5_init"),
		update: tech.Resolve(g, "md5_update"),
		finish: tech.Resolve(g, "md5_final"),
	}
	if h.m.Size() < MDMemSize {
		return nil, fmt.Errorf("grafts: md5 needs %d bytes of graft memory, have %d", MDMemSize, h.m.Size())
	}
	SetupMD5Memory(h.m)
	return h, h.Reset()
}

// Reset reinitializes the digest state.
func (h *MD5Graft) Reset() error {
	_, _, err := h.init(telemetry.SpanCtx{}, nil)
	return err
}

// Write absorbs p, feeding the graft in window-sized chunks.
func (h *MD5Graft) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		n := len(p)
		if n > MDBufCap {
			n = MDBufCap
		}
		h.m.WriteAt(MDBufAddr, p[:n])
		h.args = [2]uint32{MDBufAddr, uint32(n)}
		if _, _, err := h.update(telemetry.SpanCtx{}, h.args[:]); err != nil {
			return 0, err
		}
		p = p[n:]
	}
	return total, nil
}

// Sum finalizes and returns the digest. The graft state is consumed;
// call Reset to reuse.
func (h *MD5Graft) Sum() ([md5x.Size]byte, error) {
	var out [md5x.Size]byte
	h.args[0] = MDOutAddr
	if _, _, err := h.finish(telemetry.SpanCtx{}, h.args[:1]); err != nil {
		return out, err
	}
	h.m.ReadAt(MDOutAddr, out[:])
	return out, nil
}

// MD5Filter adapts an MD5Graft to the kernel's stream-filter interface:
// an identity filter that fingerprints everything flowing past (§3.2's
// "the data output is the same as the input; when the algorithm
// completes, the graft can be queried for the fingerprint").
type MD5Filter struct {
	h      *MD5Graft
	digest [md5x.Size]byte
	done   bool
}

// NewMD5Filter builds the filter.
func NewMD5Filter(h *MD5Graft) *MD5Filter { return &MD5Filter{h: h} }

// Name implements kernel.Filter.
func (f *MD5Filter) Name() string { return "md5" }

// Process implements kernel.Filter: fingerprint and pass through.
func (f *MD5Filter) Process(p []byte) ([]byte, error) {
	if _, err := f.h.Write(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Finish implements kernel.Filter: latch the digest.
func (f *MD5Filter) Finish() ([]byte, error) {
	d, err := f.h.Sum()
	if err != nil {
		return nil, err
	}
	f.digest = d
	f.done = true
	return nil, nil
}

// Digest returns the fingerprint; valid after the chain is closed.
func (f *MD5Filter) Digest() ([md5x.Size]byte, bool) { return f.digest, f.done }

var _ kernel.Filter = (*MD5Filter)(nil)
