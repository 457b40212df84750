package bytecode

import (
	"errors"
	"fmt"
)

// Verify is the load-time check the kernel runs before accepting a module,
// the analogue of the paper's "linear-time algorithm ... to guarantee that
// all memory references in a piece of object code have been correctly
// sandboxed" (§4.2). It guarantees, in time linear in code size, that a
// verified module cannot:
//
//   - execute an undefined opcode,
//   - jump outside its own function,
//   - read or write a local slot it does not own,
//   - call a function index that does not exist,
//   - underflow or overflow the operand stack (stack depth at every
//     instruction is computed by abstract interpretation and must be
//     consistent across all control-flow edges),
//   - fall off the end of a function (the last reachable instruction on
//     every path is a terminator).
//
// Memory accesses are NOT statically bounded here; they are guarded at run
// time by the executing technology's policy. That split mirrors the paper:
// the verifier checks structure, the policy checks data.

// ErrVerify is wrapped by all verification failures.
var ErrVerify = errors.New("bytecode: verification failed")

func vErrf(fn string, pc int, format string, args ...any) error {
	return fmt.Errorf("%w: %s+%d: %s", ErrVerify, fn, pc, fmt.Sprintf(format, args...))
}

// MaxStackDepth bounds the operand stack a verified function may need.
const MaxStackDepth = 1 << 16

// Verify checks every function in m.
func Verify(m *Module) error {
	_, err := VerifyShapes(m)
	return err
}

// Shape is what the verifier's stack pass learns about one function.
type Shape struct {
	// Depths is the operand stack depth on entry to every instruction;
	// -1 marks unreachable code.
	Depths []int
	// MaxStack is the deepest operand stack any reachable point needs.
	MaxStack int
}

// VerifyShapes is Verify returning each function's Shape (indexed like
// m.Funcs), so an engine verifies a module once and sizes its frames and
// reconstructs its blocks from that same pass. It accepts and rejects
// exactly the modules Verify does, with the same errors.
func VerifyShapes(m *Module) ([]Shape, error) {
	shapes := make([]Shape, len(m.Funcs))
	for i, f := range m.Funcs {
		s, err := verifyFunc(m, f)
		if err != nil {
			return nil, err
		}
		shapes[i] = s
	}
	return shapes, nil
}

func verifyFunc(m *Module, f *Func) (Shape, error) {
	if f.NArgs > f.NLocals {
		return Shape{}, vErrf(f.Name, 0, "NArgs %d > NLocals %d", f.NArgs, f.NLocals)
	}
	if len(f.Code) == 0 {
		return Shape{}, vErrf(f.Name, 0, "empty function body")
	}

	// Static operand validation over every instruction, reachable or not.
	// The depth pass below only visits reachable code, but the load-time
	// translators (the optimizing VM's superinstruction pass, the AOT
	// lowering) process whole function bodies — an undefined opcode or a
	// wild jump target in dead code must be rejected here, with this
	// taxonomy, rather than surface as a translator error that only some
	// engines raise. (Found by differential fuzzing: a module whose
	// unreachable tail jumped out of range verified cleanly but was
	// refused by the translators.)
	for pc, in := range f.Code {
		if !in.Op.Valid() {
			return Shape{}, vErrf(f.Name, pc, "undefined opcode %d", byte(in.Op))
		}
		switch in.Op {
		case OpLocalGet, OpLocalSet:
			if in.A >= uint32(f.NLocals) {
				return Shape{}, vErrf(f.Name, pc, "local slot %d out of range [0,%d)", in.A, f.NLocals)
			}
		case OpCall:
			if in.A >= uint32(len(m.Funcs)) {
				return Shape{}, vErrf(f.Name, pc, "call to undefined function index %d", in.A)
			}
		case OpJmp, OpJz, OpJnz:
			if in.A >= uint32(len(f.Code)) {
				return Shape{}, vErrf(f.Name, pc, "jump target %d out of range [0,%d)", in.A, len(f.Code))
			}
		}
	}

	// depth[pc] is the operand stack depth on entry to pc; -1 = not yet seen.
	depth := make([]int, len(f.Code))
	for i := range depth {
		depth[i] = -1
	}
	// Worklist of instruction indices to (re)visit. Each pc enters the
	// worklist at most once because a conflicting second depth is an error,
	// so the pass is linear.
	work := []int{0}
	depth[0] = 0
	maxd := 0

	// The sweep above validated every operand; only a conditional
	// branch's fall-through can still leave the function.
	propagate := func(from, to, d int) error {
		if to >= len(f.Code) {
			return vErrf(f.Name, from, "jump target %d out of range [0,%d)", to, len(f.Code))
		}
		if depth[to] == -1 {
			depth[to] = d
			work = append(work, to)
			return nil
		}
		if depth[to] != d {
			return vErrf(f.Name, from, "inconsistent stack depth at join %d: %d vs %d", to, depth[to], d)
		}
		return nil
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := f.Code[pc]
		d := depth[pc]
		info := opTable[in.Op]

		pop, push := info.pop, info.push
		if in.Op == OpCall {
			pop = m.Funcs[in.A].NArgs
			push = 1
		}
		if d < pop {
			return Shape{}, vErrf(f.Name, pc, "stack underflow: %s needs %d, depth is %d", in.Op, pop, d)
		}
		nd := d - pop + push
		if nd > MaxStackDepth {
			return Shape{}, vErrf(f.Name, pc, "stack depth %d exceeds limit", nd)
		}
		if nd > maxd {
			maxd = nd
		}

		switch in.Op {
		case OpJmp:
			if err := propagate(pc, int(in.A), nd); err != nil {
				return Shape{}, err
			}
		case OpJz, OpJnz:
			if err := propagate(pc, int(in.A), nd); err != nil {
				return Shape{}, err
			}
			if err := propagate(pc, pc+1, nd); err != nil {
				return Shape{}, err
			}
		case OpRet:
			// terminator; nothing to propagate. The pop==1 check above
			// guarantees a return value was present.
		case OpAbort:
			// terminator.
		default:
			if pc+1 >= len(f.Code) {
				return Shape{}, vErrf(f.Name, pc, "control falls off end of function after %s", in.Op)
			}
			if err := propagate(pc, pc+1, nd); err != nil {
				return Shape{}, err
			}
		}
	}
	return Shape{Depths: depth, MaxStack: maxd}, nil
}
