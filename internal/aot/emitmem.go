package aot

import (
	"graftlab/internal/mem"
)

// Memory-access emitters. Four regimes, decided per access site at
// translate time:
//
//   - masked: the sandbox policy (SFI) confines the access with one AND
//     instead of checking it — every store, and every load under
//     ReadProtect. Word accesses mask as addr&mask&^3 (mem.SandboxWord),
//     byte accesses as addr&mask (mem.Sandbox), exactly the optimizing
//     VM's sandbox specialization. Masked sites are never elided: the
//     mask is the policy's cost, not a check a proof can discharge.
//   - proven: the interval analysis bounded the address inside the
//     memory (and above the NIL page when the policy checks it), so the
//     closure performs the raw access with no policy branch at all —
//     the elision that collapses the per-access cost to compiled-C
//     shape.
//   - checked fallback: the interpreter's exact check sequence (NIL
//     page first when configured, then the 64-bit-safe bounds test),
//     raising the same trap kind/addr/pc the VM engines raise. Unsafe
//     and write/jump-only SFI loads keep it as the crash backstop.
//   - armed: a fault plan is attached, so every access runs the
//     fault check on the unmasked address before its policy runs,
//     uncounted accesses being a conformance violation. Armed memories
//     also disable deferral and elision entirely (see translate.go),
//     mirroring the optimizing VM's load-time NoFuse downgrade.

func faultCheck(f *mem.FaultPlan, store bool, addr uint32, pc int) {
	if t := f.Check(store, addr); t != nil {
		t.PC = pc
		panic(t)
	}
}

// toExpr lowers a symbolic-stack entry to a plain expression closure;
// the generic leaf for the cold paths (the hot paths pattern-match the
// kind and inline the leaf instead).
func (t *tr) toExpr(v sval) exprFn {
	switch v.k {
	case kConst:
		c := v.c
		return func(r []uint32) uint32 { return c }
	case kReg:
		i := v.reg
		return func(r []uint32) uint32 { return r[i] }
	default:
		return v.e
	}
}

// ld32 emits the load closure for a 4-byte load at pc with the given
// address entry, under the translator's policy regime.
func (t *tr) ld32(a sval, pc int) sval {
	t.p.stats.Loads++
	data, dlen := t.data, t.dlen
	if t.faults != nil {
		ae, faults, nilck := t.toExpr(a), t.faults, t.nilCheck
		masked, mask := t.maskLoads, t.mask&^3
		return sval{k: kExpr, traps: true, e: func(r []uint32) uint32 {
			ad := ae(r)
			faultCheck(faults, false, ad, pc)
			if masked {
				return ldw(data, ad&mask)
			}
			if nilck && ad < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, ad, pc)
			}
			if uint64(ad)+4 > dlen {
				throwAt(mem.TrapOOBLoad, ad, pc)
			}
			return ldw(data, ad)
		}}
	}
	if t.maskLoads {
		mask := t.mask &^ 3
		switch a.k {
		case kConst:
			c := a.c & mask
			return sval{k: kExpr, e: func(r []uint32) uint32 { return ldw(data, c) }}
		case kReg:
			i := a.reg
			return sval{k: kExpr, e: func(r []uint32) uint32 { return ldw(data, r[i]&mask) }}
		default:
			ae := a.e
			return sval{k: kExpr, traps: a.traps, e: func(r []uint32) uint32 { return ldw(data, ae(r)&mask) }}
		}
	}
	if t.proven(pc, 4) {
		t.p.stats.ProvenLoads++
		switch a.k {
		case kConst:
			c := a.c
			return sval{k: kExpr, traps: a.traps, e: func(r []uint32) uint32 { return ldw(data, c) }}
		case kReg:
			i := a.reg
			return sval{k: kExpr, traps: a.traps, e: func(r []uint32) uint32 { return ldw(data, r[i]) }}
		default:
			ae := a.e
			return sval{k: kExpr, traps: a.traps, e: func(r []uint32) uint32 { return ldw(data, ae(r)) }}
		}
	}
	if t.nilCheck {
		ae := t.toExpr(a)
		return sval{k: kExpr, traps: true, e: func(r []uint32) uint32 {
			ad := ae(r)
			if ad < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, ad, pc)
			}
			if uint64(ad)+4 > dlen {
				throwAt(mem.TrapOOBLoad, ad, pc)
			}
			return ldw(data, ad)
		}}
	}
	switch a.k {
	case kConst:
		c := a.c
		return sval{k: kExpr, traps: true, e: func(r []uint32) uint32 {
			if uint64(c)+4 > dlen {
				throwAt(mem.TrapOOBLoad, c, pc)
			}
			return ldw(data, c)
		}}
	case kReg:
		i := a.reg
		return sval{k: kExpr, traps: true, e: func(r []uint32) uint32 {
			ad := r[i]
			if uint64(ad)+4 > dlen {
				throwAt(mem.TrapOOBLoad, ad, pc)
			}
			return ldw(data, ad)
		}}
	default:
		ae := a.e
		return sval{k: kExpr, traps: true, e: func(r []uint32) uint32 {
			ad := ae(r)
			if uint64(ad)+4 > dlen {
				throwAt(mem.TrapOOBLoad, ad, pc)
			}
			return ldw(data, ad)
		}}
	}
}

// ld8 emits the load closure for a 1-byte load.
func (t *tr) ld8(a sval, pc int) sval {
	t.p.stats.Loads++
	data, dlen := t.data, t.dlen
	if t.faults != nil {
		ae, faults, nilck := t.toExpr(a), t.faults, t.nilCheck
		masked, mask := t.maskLoads, t.mask
		return sval{k: kExpr, traps: true, e: func(r []uint32) uint32 {
			ad := ae(r)
			faultCheck(faults, false, ad, pc)
			if masked {
				return uint32(data[ad&mask])
			}
			if nilck && ad < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, ad, pc)
			}
			if uint64(ad) >= dlen {
				throwAt(mem.TrapOOBLoad, ad, pc)
			}
			return uint32(data[ad])
		}}
	}
	if t.maskLoads {
		mask := t.mask
		switch a.k {
		case kConst:
			c := a.c & mask
			return sval{k: kExpr, e: func(r []uint32) uint32 { return uint32(data[c]) }}
		case kReg:
			i := a.reg
			return sval{k: kExpr, e: func(r []uint32) uint32 { return uint32(data[r[i]&mask]) }}
		default:
			ae := a.e
			return sval{k: kExpr, traps: a.traps, e: func(r []uint32) uint32 { return uint32(data[ae(r)&mask]) }}
		}
	}
	if t.proven(pc, 1) {
		t.p.stats.ProvenLoads++
		switch a.k {
		case kConst:
			c := a.c
			return sval{k: kExpr, traps: a.traps, e: func(r []uint32) uint32 { return uint32(data[c]) }}
		case kReg:
			i := a.reg
			return sval{k: kExpr, traps: a.traps, e: func(r []uint32) uint32 { return uint32(data[r[i]]) }}
		default:
			ae := a.e
			return sval{k: kExpr, traps: a.traps, e: func(r []uint32) uint32 { return uint32(data[ae(r)]) }}
		}
	}
	if t.nilCheck {
		ae := t.toExpr(a)
		return sval{k: kExpr, traps: true, e: func(r []uint32) uint32 {
			ad := ae(r)
			if ad < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, ad, pc)
			}
			if uint64(ad) >= dlen {
				throwAt(mem.TrapOOBLoad, ad, pc)
			}
			return uint32(data[ad])
		}}
	}
	switch a.k {
	case kReg:
		i := a.reg
		return sval{k: kExpr, traps: true, e: func(r []uint32) uint32 {
			ad := r[i]
			if uint64(ad) >= dlen {
				throwAt(mem.TrapOOBLoad, ad, pc)
			}
			return uint32(data[ad])
		}}
	default:
		ae := t.toExpr(a)
		return sval{k: kExpr, traps: true, e: func(r []uint32) uint32 {
			ad := ae(r)
			if uint64(ad) >= dlen {
				throwAt(mem.TrapOOBLoad, ad, pc)
			}
			return uint32(data[ad])
		}}
	}
}

// st32 emits the store statement for a 4-byte store at pc: evaluate
// address, then value, then check, then write — the interpreter's exact
// order, which the fault plan's access counting observes.
func (t *tr) st32(a, v sval, pc int) stmtFn {
	t.p.stats.Stores++
	data, dlen := t.data, t.dlen
	if t.faults != nil {
		ae, ve, faults, nilck := t.toExpr(a), t.toExpr(v), t.faults, t.nilCheck
		masked, mask := t.maskStores, t.mask&^3
		return func(r []uint32) {
			ad := ae(r)
			val := ve(r)
			faultCheck(faults, true, ad, pc)
			if masked {
				stw(data, ad&mask, val)
				return
			}
			if nilck && ad < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, ad, pc)
			}
			if uint64(ad)+4 > dlen {
				throwAt(mem.TrapOOBStore, ad, pc)
			}
			stw(data, ad, val)
		}
	}
	if t.maskStores {
		mask := t.mask &^ 3
		switch {
		case a.k == kReg && v.k == kReg:
			ai, vi := a.reg, v.reg
			return func(r []uint32) { stw(data, r[ai]&mask, r[vi]) }
		case a.k == kReg:
			ai, ve := a.reg, t.toExpr(v)
			return func(r []uint32) { stw(data, r[ai]&mask, ve(r)) }
		case a.k == kConst:
			c, ve := a.c&mask, t.toExpr(v)
			return func(r []uint32) { stw(data, c, ve(r)) }
		default:
			ae, ve := a.e, t.toExpr(v)
			return func(r []uint32) {
				ad := ae(r)
				stw(data, ad&mask, ve(r))
			}
		}
	}
	if t.proven(pc, 4) {
		t.p.stats.ProvenStores++
		switch {
		case a.k == kReg && v.k == kReg:
			ai, vi := a.reg, v.reg
			return func(r []uint32) { stw(data, r[ai], r[vi]) }
		case a.k == kReg && v.k == kConst:
			ai, c := a.reg, v.c
			return func(r []uint32) { stw(data, r[ai], c) }
		case a.k == kReg:
			ai, ve := a.reg, v.e
			return func(r []uint32) { stw(data, r[ai], ve(r)) }
		case a.k == kConst:
			c, ve := a.c, t.toExpr(v)
			return func(r []uint32) { stw(data, c, ve(r)) }
		default:
			ae, ve := a.e, t.toExpr(v)
			return func(r []uint32) {
				ad := ae(r)
				stw(data, ad, ve(r))
			}
		}
	}
	if t.nilCheck {
		ae, ve := t.toExpr(a), t.toExpr(v)
		return func(r []uint32) {
			ad := ae(r)
			val := ve(r)
			if ad < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, ad, pc)
			}
			if uint64(ad)+4 > dlen {
				throwAt(mem.TrapOOBStore, ad, pc)
			}
			stw(data, ad, val)
		}
	}
	switch {
	case a.k == kReg && v.k == kReg:
		ai, vi := a.reg, v.reg
		return func(r []uint32) {
			ad := r[ai]
			if uint64(ad)+4 > dlen {
				throwAt(mem.TrapOOBStore, ad, pc)
			}
			stw(data, ad, r[vi])
		}
	case a.k == kReg:
		ai, ve := a.reg, t.toExpr(v)
		return func(r []uint32) {
			ad := r[ai]
			val := ve(r)
			if uint64(ad)+4 > dlen {
				throwAt(mem.TrapOOBStore, ad, pc)
			}
			stw(data, ad, val)
		}
	default:
		ae, ve := t.toExpr(a), t.toExpr(v)
		return func(r []uint32) {
			ad := ae(r)
			val := ve(r)
			if uint64(ad)+4 > dlen {
				throwAt(mem.TrapOOBStore, ad, pc)
			}
			stw(data, ad, val)
		}
	}
}

// st8 emits the store statement for a 1-byte store.
func (t *tr) st8(a, v sval, pc int) stmtFn {
	t.p.stats.Stores++
	data, dlen := t.data, t.dlen
	if t.faults != nil {
		ae, ve, faults, nilck := t.toExpr(a), t.toExpr(v), t.faults, t.nilCheck
		masked, mask := t.maskStores, t.mask
		return func(r []uint32) {
			ad := ae(r)
			val := ve(r)
			faultCheck(faults, true, ad, pc)
			if masked {
				data[ad&mask] = byte(val)
				return
			}
			if nilck && ad < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, ad, pc)
			}
			if uint64(ad) >= dlen {
				throwAt(mem.TrapOOBStore, ad, pc)
			}
			data[ad] = byte(val)
		}
	}
	if t.maskStores {
		mask := t.mask
		switch {
		case a.k == kReg && v.k == kReg:
			ai, vi := a.reg, v.reg
			return func(r []uint32) { data[r[ai]&mask] = byte(r[vi]) }
		case a.k == kReg:
			ai, ve := a.reg, t.toExpr(v)
			return func(r []uint32) { data[r[ai]&mask] = byte(ve(r)) }
		default:
			ae, ve := t.toExpr(a), t.toExpr(v)
			return func(r []uint32) {
				ad := ae(r)
				data[ad&mask] = byte(ve(r))
			}
		}
	}
	if t.proven(pc, 1) {
		t.p.stats.ProvenStores++
		switch {
		case a.k == kReg && v.k == kReg:
			ai, vi := a.reg, v.reg
			return func(r []uint32) { data[r[ai]] = byte(r[vi]) }
		case a.k == kReg:
			ai, ve := a.reg, t.toExpr(v)
			return func(r []uint32) { data[r[ai]] = byte(ve(r)) }
		default:
			ae, ve := t.toExpr(a), t.toExpr(v)
			return func(r []uint32) {
				ad := ae(r)
				data[ad] = byte(ve(r))
			}
		}
	}
	if t.nilCheck {
		ae, ve := t.toExpr(a), t.toExpr(v)
		return func(r []uint32) {
			ad := ae(r)
			val := ve(r)
			if ad < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, ad, pc)
			}
			if uint64(ad) >= dlen {
				throwAt(mem.TrapOOBStore, ad, pc)
			}
			data[ad] = byte(val)
		}
	}
	switch {
	case a.k == kReg && v.k == kReg:
		ai, vi := a.reg, v.reg
		return func(r []uint32) {
			ad := r[ai]
			if uint64(ad) >= dlen {
				throwAt(mem.TrapOOBStore, ad, pc)
			}
			data[ad] = byte(r[vi])
		}
	default:
		ae, ve := t.toExpr(a), t.toExpr(v)
		return func(r []uint32) {
			ad := ae(r)
			val := ve(r)
			if uint64(ad) >= dlen {
				throwAt(mem.TrapOOBStore, ad, pc)
			}
			data[ad] = byte(val)
		}
	}
}

// proven reports whether the interval analysis bounded the access at pc
// (of the given byte width) inside the memory — and above the NIL page
// when the policy demands it — so its runtime checks can be elided.
func (t *tr) proven(pc int, width uint32) bool {
	if t.acc == nil {
		return false
	}
	iv := t.acc[pc]
	if t.nilCheck && iv.lo < mem.NilPageSize {
		return false
	}
	return uint64(iv.hi)+uint64(width) <= t.dlen
}
