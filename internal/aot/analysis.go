package aot

import (
	"graftlab/internal/bytecode"
)

// The range analysis behind the verifier's elision proofs: a forward
// fixpoint over the function's basic blocks computing, for every block
// entry, an interval per local slot and per operand-stack position.
// Branch edges refine the compared local (the eBPF verifier's trick:
// `if (i < 16)` proves i <= 15 on the taken path), so counted loops and
// guarded accesses get usable bounds even though the analysis never
// unrolls anything. Joins widen after a few visits per block, keeping
// the pass linear in practice and guaranteeing termination.
//
// The analysis is total: it never rejects a program. Structural
// rejection belongs to bytecode.Verify alone — that is what keeps the
// two verifiers' accept sets identical. A program this pass cannot
// prove anything about simply runs with every check intact.

// absState is the abstract machine state at a block entry.
type absState struct {
	locals []ival
	stack  []ival
}

// cmpShape records that a stack value is the boolean of `locals[loc] op c`.
type cmpShape struct {
	op  bytecode.Op
	loc int32
	c   uint32
}

// absVal is one abstract operand-stack entry during the in-block walk:
// its interval, plus enough provenance for branch refinement.
type absVal struct {
	iv     ival
	loc    int32 // >= 0: value is exactly locals[loc], unmodified since push
	cmp    cmpShape
	hasCmp bool
}

// widenAfter bounds how many times a block's entry state may change
// before joins widen changed bounds to their extremes.
const widenAfter = 8

// maxAnalysisSteps caps total block visits; beyond it the analysis
// gives up (soundly: the translator falls back to full checks).
const maxAnalysisSteps = 1 << 14

// analyzeFunc computes, per memory-access pc of f, the interval of that
// access's address operand (joined over every visit of a fixpoint over
// block-entry states; entry states only grow under join, and the
// transfer functions are monotone, so the joined interval equals the one
// a clean pass over the converged states would compute). The result is
// indexed by pc; pcs that are not memory accesses hold fullIval. Returns
// nil when the analysis gives up; callers must then assume fullIval
// everywhere. maxStack is the verifier's bound on f's operand stack.
func analyzeFunc(mod *bytecode.Module, f *bytecode.Func, leaders []bool, maxStack int, memSize uint32) []ival {
	n := len(f.Code)
	entry := make([]*absState, n)
	visits := make([]int, n)
	acc := make([]ival, n)
	seen := make([]bool, n)
	record := func(pc int, iv ival) {
		if seen[pc] {
			iv = acc[pc].join(iv)
		}
		acc[pc], seen[pc] = iv, true
	}

	init := &absState{locals: make([]ival, f.NLocals)}
	for i := range init.locals {
		if i < f.NArgs {
			init.locals[i] = fullIval
		} else {
			init.locals[i] = ival{0, 0} // non-arg locals are zeroed at entry
		}
	}
	entry[0] = init
	work := []int{0}
	steps := 0

	// propagate joins (locals, stack) into the entry state of the block
	// at pc, copying what it keeps: callers pass scratch buffers.
	propagate := func(pc int, locals, stack []ival) {
		cur := entry[pc]
		if cur == nil {
			entry[pc] = &absState{
				locals: append([]ival(nil), locals...),
				stack:  append([]ival(nil), stack...),
			}
			work = append(work, pc)
			return
		}
		changed := false
		widen := visits[pc] >= widenAfter
		merge := func(dst *ival, src ival) {
			j := dst.join(src)
			if j != *dst {
				if widen {
					if j.lo < dst.lo {
						j.lo = 0
					}
					if j.hi > dst.hi {
						j.hi = maxU32
					}
				}
				*dst = j
				changed = true
			}
		}
		for i := range cur.locals {
			merge(&cur.locals[i], locals[i])
		}
		for i := range cur.stack {
			if i < len(stack) {
				merge(&cur.stack[i], stack[i])
			}
		}
		if changed {
			visits[pc]++
			work = append(work, pc)
		}
	}

	// Scratch state of the block being walked, reused across visits.
	locals := make([]ival, f.NLocals)
	taken := make([]ival, f.NLocals)
	fall := make([]ival, f.NLocals)
	stk := make([]absVal, 0, maxStack)
	exit := make([]ival, 0, maxStack)

	push := func(v absVal) { stk = append(stk, v) }
	pop := func() absVal {
		v := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		return v
	}
	exitIvs := func() []ival {
		exit = exit[:0]
		for _, v := range stk {
			exit = append(exit, v.iv)
		}
		return exit
	}
	// refinedLocals writes locals, refined by the branch condition cond
	// holding with the given truth, into out.
	refinedLocals := func(cond absVal, truth bool, out []ival) []ival {
		copy(out, locals)
		switch {
		case cond.hasCmp:
			l := cond.cmp.loc
			out[l] = refineCmp(out[l], cond.cmp.op, cond.cmp.c, truth)
		case cond.loc >= 0:
			l := cond.loc
			if truth { // value != 0
				if out[l].lo == 0 && out[l].hi > 0 {
					out[l].lo = 1
				}
			} else { // value == 0
				out[l] = ival{0, 0}
			}
		}
		return out
	}

	for len(work) > 0 {
		if steps++; steps > maxAnalysisSteps {
			return nil
		}
		leader := work[len(work)-1]
		work = work[:len(work)-1]
		st := entry[leader]
		copy(locals, st.locals)
		stk = stk[:0]
		for _, iv := range st.stack {
			stk = append(stk, absVal{iv: iv, loc: -1})
		}

	blockLoop:
		for pc := leader; ; pc++ {
			if pc != leader && leaders[pc] {
				propagate(pc, locals, exitIvs())
				break
			}
			in := f.Code[pc]
			switch in.Op {
			case bytecode.OpNop:
			case bytecode.OpConst:
				push(absVal{iv: constIval(in.A), loc: -1})
			case bytecode.OpLocalGet:
				push(absVal{iv: locals[in.A], loc: int32(in.A)})
			case bytecode.OpLocalSet:
				v := pop()
				locals[in.A] = v.iv
			case bytecode.OpDrop:
				pop()
			case bytecode.OpEqz:
				v := pop()
				nv := absVal{iv: ival{0, 1}, loc: -1}
				switch {
				case v.hasCmp:
					nv.hasCmp = true
					nv.cmp = cmpShape{op: negateCmp(v.cmp.op), loc: v.cmp.loc, c: v.cmp.c}
				case v.loc >= 0:
					nv.hasCmp = true
					nv.cmp = cmpShape{op: bytecode.OpEq, loc: v.loc, c: 0}
				}
				push(nv)
			case bytecode.OpLd32:
				a := pop()
				record(pc, a.iv)
				push(absVal{iv: fullIval, loc: -1})
			case bytecode.OpLd8:
				a := pop()
				record(pc, a.iv)
				push(absVal{iv: ival{0, 255}, loc: -1})
			case bytecode.OpSt32, bytecode.OpSt8:
				pop() // value
				a := pop()
				record(pc, a.iv)
			case bytecode.OpMemSize:
				push(absVal{iv: constIval(memSize), loc: -1})
			case bytecode.OpCall:
				callee := mod.Funcs[in.A]
				stk = stk[:len(stk)-callee.NArgs]
				push(absVal{iv: fullIval, loc: -1})
			case bytecode.OpJmp:
				propagate(int(in.A), locals, exitIvs())
				break blockLoop
			case bytecode.OpJz, bytecode.OpJnz:
				cond := pop()
				ivs := exitIvs()
				// Jz takes the jump when cond == 0; Jnz when cond != 0.
				takenTruth := in.Op == bytecode.OpJnz
				propagate(int(in.A), refinedLocals(cond, takenTruth, taken), ivs)
				propagate(pc+1, refinedLocals(cond, !takenTruth, fall), ivs)
				break blockLoop
			case bytecode.OpRet, bytecode.OpAbort:
				break blockLoop
			default: // binary ALU / comparison ops
				y := pop()
				x := pop()
				nv := absVal{iv: ivalBin(in.Op, x.iv, y.iv), loc: -1}
				switch in.Op {
				case bytecode.OpEq, bytecode.OpNe, bytecode.OpLtU,
					bytecode.OpLeU, bytecode.OpGtU, bytecode.OpGeU:
					if x.loc >= 0 && y.iv.isConst() {
						nv.hasCmp = true
						nv.cmp = cmpShape{op: in.Op, loc: x.loc, c: y.iv.lo}
					} else if y.loc >= 0 && x.iv.isConst() {
						nv.hasCmp = true
						nv.cmp = cmpShape{op: mirrorCmp(in.Op), loc: y.loc, c: x.iv.lo}
					}
				}
				push(nv)
			}
		}
	}
	for pc, ok := range seen {
		if !ok {
			acc[pc] = fullIval
		}
	}
	return acc
}
