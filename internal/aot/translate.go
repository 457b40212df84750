package aot

import (
	"fmt"

	"graftlab/internal/bytecode"
	"graftlab/internal/mem"
)

// The translator: one pass over each basic block that dissolves the
// operand stack into expression trees and emits the block's closure.
//
// Symbolic stack. Each stack position holds one of three kinds of
// entry: a constant known at translate time, a register reference
// (a local slot, or the position's own canonical spill slot), or a
// pending expression tree — a closure built from the specialized
// constructors in emitbin/emitmem that will compute the value when
// called. Trees defer work so that `local.get x; const 1; add;
// local.set x` becomes a single statement instead of four dispatches.
//
// Registers. A frame is NLocals locals followed by one canonical spill
// slot per stack position (slot for position i is NLocals+i). Canonical
// slots carry stack values across block boundaries and across
// materialization events; slot i is only ever written when position i
// materializes, so a surviving reference to it is never stale.
//
// Materialization events. Deferral is sound only while nothing the
// pending trees depend on can change and no effect can be reordered
// around them, so pending trees are flushed (bottom-up: push order,
// which is original bytecode order) at every point that could violate
// that:
//
//   - St32/St8 and Call flush all pending trees: trees may contain
//     loads that must observe memory before the store/callee writes it,
//     and may trap, which must happen before the store/callee's trap.
//   - LocalSet additionally flushes plain local references: the write
//     would invalidate them.
//   - Drop of a trapping tree flushes earlier pending trees, then
//     evaluates the dropped tree for its trap.
//   - Ret/Abort evaluate (and discard) only the trapping pendings —
//     the frame is dead, but a trap that would have fired must fire.
//   - Block ends (Jmp/Jz/Jnz/fallthrough) flush everything into
//     canonical slots, since successor blocks address stack values by
//     position.
//
// Between events every deferred operation is pure (registers and
// constants) or moves only forward in time to a point where its inputs
// are provably unchanged, so results, traps, memory contents, and the
// fault plan's access order are exactly the interpreter's.
//
// Armed fault plans force eager mode: every instruction's tree is
// flushed immediately, making effect order per-instruction so the
// plan's access counter sees the same sequence the interpreters
// produce.

type kind uint8

const (
	kConst kind = iota
	kReg
	kExpr
)

// sval is one symbolic-stack entry.
type sval struct {
	k     kind
	c     uint32 // kConst
	reg   int    // kReg: frame register index
	e     exprFn // kExpr
	traps bool   // kExpr: tree contains an op that can trap
	// Comparison provenance, kept so conditional branches can
	// re-specialize from the operands (see condTerm).
	isCmp  bool
	cop    bytecode.Op
	cx, cy *sval
}

// tr is the per-function translation state; stk/stmts reset per block.
type tr struct {
	p          *Prog
	mod        *bytecode.Module
	f          *bytecode.Func
	data       []byte
	dlen       uint64
	memSize    uint32
	mask       uint32 // sandbox mask (memSize-1)
	nilCheck   bool
	maskStores bool // sandbox: stores are masked into the region
	maskLoads  bool // sandbox with read protection: loads are masked too
	faults     *mem.FaultPlan
	eager      bool
	acc        []ival // per-pc access address intervals; nil = prove nothing
	nlocals    int
	stk        []sval
	stmts      []stmtFn
}

func (t *tr) canon(i int) int { return t.nlocals + i }

func (t *tr) push(v sval) { t.stk = append(t.stk, v) }

func (t *tr) pop() sval {
	v := t.stk[len(t.stk)-1]
	t.stk = t.stk[:len(t.stk)-1]
	return v
}

// spillAt materializes position i into its canonical slot.
func (t *tr) spillAt(i int) {
	v := t.stk[i]
	dst := t.canon(i)
	if v.k == kReg && v.reg == dst {
		return
	}
	t.stmts = append(t.stmts, assign(dst, v))
	t.stk[i] = sval{k: kReg, reg: dst}
}

// spillExprsBelow flushes pending trees at positions below the top n
// entries (bottom-up: original order).
func (t *tr) spillExprsBelow(n int) {
	for i := 0; i < len(t.stk)-n; i++ {
		if t.stk[i].k == kExpr {
			t.spillAt(i)
		}
	}
}

// spillExprs flushes every pending tree.
func (t *tr) spillExprs() { t.spillExprsBelow(0) }

// spillForLocalSet flushes, below the value being set, pending trees
// (they may read the written local) and plain local references (the
// write would invalidate them).
func (t *tr) spillForLocalSet() {
	for i := 0; i < len(t.stk)-1; i++ {
		if t.stk[i].k == kExpr || (t.stk[i].k == kReg && t.stk[i].reg < t.nlocals) {
			t.spillAt(i)
		}
	}
}

// spillBoundary materializes the whole stack into canonical slots for a
// block transition.
func (t *tr) spillBoundary() {
	for i := range t.stk {
		t.spillAt(i)
	}
}

func trapExpr(kind mem.TrapKind, pc int) exprFn {
	return func(r []uint32) uint32 { throwAt(kind, 0, pc); return 0 }
}

func isCmpOp(op bytecode.Op) bool {
	switch op {
	case bytecode.OpEq, bytecode.OpNe, bytecode.OpLtU, bytecode.OpLeU,
		bytecode.OpGtU, bytecode.OpGeU:
		return true
	}
	return false
}

// binop builds the tree for a binary ALU/comparison instruction.
func (t *tr) binop(op bytecode.Op, pc int) {
	y := t.pop()
	x := t.pop()
	trapping := op == bytecode.OpDivU || op == bytecode.OpRemU
	if x.k == kConst && y.k == kConst {
		if trapping && y.c == 0 {
			t.push(sval{k: kExpr, e: trapExpr(mem.TrapDivZero, pc), traps: true})
			return
		}
		t.push(sval{k: kConst, c: foldBin(op, x.c, y.c)})
		return
	}
	var e exprFn
	switch {
	case x.k == kReg && y.k == kReg:
		e = binRR(op, x.reg, y.reg, pc)
	case x.k == kReg && y.k == kConst:
		e = binRC(op, x.reg, y.c, pc)
	case x.k == kExpr && y.k == kConst:
		e = binEC(op, x.e, y.c, pc)
	case x.k == kExpr && y.k == kReg:
		e = binER(op, x.e, y.reg, pc)
	case x.k == kReg && y.k == kExpr:
		e = binRE(op, x.reg, y.e, pc)
	case x.k == kConst && y.k == kReg:
		e = binER(op, t.toExpr(x), y.reg, pc)
	case x.k == kConst && y.k == kExpr:
		e = binEE(op, t.toExpr(x), y.e, pc)
	default:
		e = binEE(op, x.e, y.e, pc)
	}
	nv := sval{
		k: kExpr, e: e,
		traps: x.traps || y.traps || (trapping && !(y.k == kConst && y.c != 0)),
	}
	if isCmpOp(op) {
		xcp, ycp := x, y
		nv.isCmp, nv.cop, nv.cx, nv.cy = true, op, &xcp, &ycp
	}
	t.push(nv)
}

// eqz builds the logical-not tree, preserving comparison provenance so
// `eqz; jz` still specializes as a compare-and-branch.
func (t *tr) eqz() {
	v := t.pop()
	switch {
	case v.k == kConst:
		t.push(sval{k: kConst, c: b2u(v.c == 0)})
	case v.isCmp:
		t.push(sval{
			k: kExpr, e: eqzE(v.e), traps: v.traps,
			isCmp: true, cop: negateCmp(v.cop), cx: v.cx, cy: v.cy,
		})
	case v.k == kReg:
		cp, zero := v, sval{k: kConst}
		t.push(sval{
			k: kExpr, e: eqzR(v.reg),
			isCmp: true, cop: bytecode.OpEq, cx: &cp, cy: &zero,
		})
	default:
		cp, zero := v, sval{k: kConst}
		t.push(sval{
			k: kExpr, e: eqzE(v.e), traps: v.traps,
			isCmp: true, cop: bytecode.OpEq, cx: &cp, cy: &zero,
		})
	}
}

// callStmt lowers a call: flush pendings below the arguments, evaluate
// the arguments in push order into a per-site scratch buffer, and let
// Prog.call run the callee. The scratch is reentrancy-safe: the callee
// copies it into its own frame before any recursion re-enters this
// closure.
func (t *tr) callStmt(in bytecode.Instr) {
	callee := t.mod.Funcs[in.A]
	na := callee.NArgs
	t.spillExprsBelow(na)
	args := make([]sval, na)
	for i := na - 1; i >= 0; i-- {
		args[i] = t.pop()
	}
	dst := t.canon(len(t.stk))
	idx := int(in.A)
	p := t.p
	switch na {
	case 0:
		t.stmts = append(t.stmts, func(r []uint32) { r[dst] = p.call(idx, nil) })
	case 1:
		a0 := t.toExpr(args[0])
		sc := make([]uint32, 1)
		t.stmts = append(t.stmts, func(r []uint32) {
			sc[0] = a0(r)
			r[dst] = p.call(idx, sc)
		})
	case 2:
		a0, a1 := t.toExpr(args[0]), t.toExpr(args[1])
		sc := make([]uint32, 2)
		t.stmts = append(t.stmts, func(r []uint32) {
			sc[0] = a0(r)
			sc[1] = a1(r)
			r[dst] = p.call(idx, sc)
		})
	default:
		afns := make([]exprFn, na)
		for i, a := range args {
			afns[i] = t.toExpr(a)
		}
		sc := make([]uint32, na)
		t.stmts = append(t.stmts, func(r []uint32) {
			for k, fn := range afns {
				sc[k] = fn(r)
			}
			r[dst] = p.call(idx, sc)
		})
	}
	t.push(sval{k: kReg, reg: dst})
}

// translateFunc lowers one verified function into its block closures;
// shape is the verifier's stack pass over f. With elide set, the
// interval analysis runs and proven accesses lose their checks.
func translateFunc(p *Prog, mod *bytecode.Module, f *bytecode.Func, shape bytecode.Shape, m *mem.Memory, cfg mem.Config, elide bool) (afunc, error) {
	depths := shape.Depths
	leaders := bytecode.Leaders(f)
	costs := bytecode.BlockCosts(f, leaders)

	t := &tr{
		p:          p,
		mod:        mod,
		f:          f,
		data:       m.Data,
		dlen:       uint64(len(m.Data)),
		memSize:    uint32(len(m.Data)),
		mask:       m.Mask(),
		nilCheck:   cfg.Policy == mem.PolicyChecked && cfg.NilCheck,
		maskStores: cfg.Policy == mem.PolicySandbox,
		maskLoads:  cfg.Policy == mem.PolicySandbox && cfg.ReadProtect,
		faults:     m.Faults(),
		nlocals:    f.NLocals,
	}
	t.eager = t.faults != nil
	if elide && !t.eager {
		t.acc = analyzeFunc(mod, f, leaders, shape.MaxStack, t.memSize)
	}

	blockIdx := make([]int32, len(f.Code))
	nblocks := 0
	for pc, isLeader := range leaders {
		if isLeader {
			blockIdx[pc] = int32(nblocks)
			nblocks++
		}
	}

	af := afunc{
		name:   f.Name,
		nargs:  f.NArgs,
		nregs:  f.NLocals + shape.MaxStack,
		blocks: make([]blockFn, nblocks),
	}

	for lpc, isLeader := range leaders {
		if !isLeader {
			continue
		}
		bi := blockIdx[lpc]
		if depths[lpc] == -1 {
			// Unreachable block: verified code never enters it, but the
			// slot must hold something defensible.
			lpc := lpc
			af.blocks[bi] = func(r []uint32) int32 {
				throwAt(mem.TrapUnreachable, 0, lpc)
				return -1
			}
			continue
		}
		bm := &blockMeta{
			cost: int64(costs[lpc]),
			pc:   int32(lpc),
			name: f.Name,
			line: f.Line(lpc),
		}
		term, err := t.translateBlock(lpc, depths[lpc], leaders, blockIdx)
		if err != nil {
			return afunc{}, err
		}
		af.blocks[bi] = makeBlock(p, bm, t.stmts, term)
	}
	return af, nil
}

// translateBlock walks one basic block, filling t.stmts and returning
// the terminator.
func (t *tr) translateBlock(leader, depth0 int, leaders []bool, blockIdx []int32) (func([]uint32) int32, error) {
	t.stmts = nil
	t.stk = t.stk[:0]
	for i := 0; i < depth0; i++ {
		t.push(sval{k: kReg, reg: t.canon(i)})
	}
	f := t.f
	for pc := leader; ; pc++ {
		if pc != leader && leaders[pc] {
			// Fall through into the next block.
			t.spillBoundary()
			return staticTerm(blockIdx[pc]), nil
		}
		in := f.Code[pc]
		switch in.Op {
		case bytecode.OpNop:
		case bytecode.OpConst:
			t.push(sval{k: kConst, c: in.A})
		case bytecode.OpLocalGet:
			t.push(sval{k: kReg, reg: int(in.A)})
		case bytecode.OpLocalSet:
			t.spillForLocalSet()
			v := t.pop()
			t.stmts = append(t.stmts, assign(int(in.A), v))
		case bytecode.OpDrop:
			v := t.pop()
			if v.k == kExpr && v.traps {
				t.spillExprs()
				t.stmts = append(t.stmts, evalDiscard(v.e))
			}
		case bytecode.OpEqz:
			t.eqz()
		case bytecode.OpMemSize:
			t.push(sval{k: kConst, c: t.memSize})
		case bytecode.OpLd32:
			a := t.pop()
			t.push(t.ld32(a, pc))
		case bytecode.OpLd8:
			a := t.pop()
			t.push(t.ld8(a, pc))
		case bytecode.OpSt32:
			t.spillExprsBelow(2)
			v := t.pop()
			a := t.pop()
			t.stmts = append(t.stmts, t.st32(a, v, pc))
		case bytecode.OpSt8:
			t.spillExprsBelow(2)
			v := t.pop()
			a := t.pop()
			t.stmts = append(t.stmts, t.st8(a, v, pc))
		case bytecode.OpCall:
			t.callStmt(in)
		case bytecode.OpJmp:
			t.spillBoundary()
			return staticTerm(blockIdx[in.A]), nil
		case bytecode.OpJz, bytecode.OpJnz:
			cond := t.pop()
			t.spillBoundary()
			needTrue := in.Op == bytecode.OpJnz
			taken, fall := blockIdx[in.A], blockIdx[pc+1]
			if cond.k == kConst {
				if (cond.c != 0) == needTrue {
					return staticTerm(taken), nil
				}
				return staticTerm(fall), nil
			}
			return t.condTerm(cond, needTrue, taken, fall), nil
		case bytecode.OpRet:
			v := t.pop()
			for i := range t.stk {
				if t.stk[i].k == kExpr && t.stk[i].traps {
					t.stmts = append(t.stmts, evalDiscard(t.stk[i].e))
				}
			}
			return retTerm(t.p, v), nil
		case bytecode.OpAbort:
			v := t.pop()
			for i := range t.stk {
				if t.stk[i].k == kExpr && t.stk[i].traps {
					t.stmts = append(t.stmts, evalDiscard(t.stk[i].e))
				}
			}
			return abortTerm(v, pc), nil
		default:
			if !isBinOp(in.Op) {
				return nil, fmt.Errorf("aot: %s+%d: untranslatable opcode %s", f.Name, pc, in.Op)
			}
			t.binop(in.Op, pc)
		}
		if t.eager {
			t.spillExprs()
		}
	}
}

func isBinOp(op bytecode.Op) bool {
	return op >= bytecode.OpAdd && op <= bytecode.OpGeU
}
