// Package vm is the bytecode interpreter: the paper's "in-kernel virtual
// machine" technology class (Java Alpha 3 in the original study). It
// executes verified bytecode modules with a fetch-decode-execute loop,
// applies a memory protection policy on every load and store, and meters
// fuel so a runaway graft is preempted rather than monopolizing the host —
// the paper's requirement that "we must be able to preempt an extension
// that runs too long" (§4).
//
// Two engines share the package: VM is the naive switch-dispatch reference
// interpreter below, and OptVM (opt.go) is a load-time optimizing
// translator over the same semantics. The two are differentially tested
// against each other (diff_test.go); VM is the semantic baseline and stays
// deliberately simple.
package vm

import (
	"fmt"
	"math/bits"

	"graftlab/internal/bytecode"
	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

// DefaultMaxCallDepth bounds graft recursion.
const DefaultMaxCallDepth = 256

// throwAt raises a trap that records the faulting bytecode pc. Both
// engines funnel their traps through here so differential tests can
// compare trap program counters, not just kinds.
func throwAt(kind mem.TrapKind, addr uint32, pc int) {
	panic(&mem.Trap{Kind: kind, Addr: addr, PC: pc})
}

// faultCheck consults an armed fault plan for one memory access and
// throws the injected trap, stamped with the bytecode pc, when the
// access index hits the schedule.
func faultCheck(f *mem.FaultPlan, store bool, addr uint32, pc int) {
	if t := f.Check(store, addr); t != nil {
		t.PC = pc
		panic(t)
	}
}

// VM executes one loaded module against one linear memory.
//
// Concurrency: a VM is NOT safe for concurrent use. Invoke, handles,
// and the Fuel/MaxCallDepth fields all share the fuel counter
// and call-depth state; grafts are invoked from one kernel context at a
// time, matching how a kernel serializes calls at a single hook point.
// Callers that want parallelism must create one VM (and one Memory) per
// context. Fuel is sampled exactly once at the start of each invocation —
// mutating v.Fuel mid-invocation (e.g. from another goroutine) is a data
// race and has no defined effect on the running graft.
type VM struct {
	entries
	mem *mem.Memory
	cfg mem.Config

	// maxStack[i] is the operand stack requirement of function i.
	maxStack []int

	// MaxCallDepth bounds recursion; 0 means DefaultMaxCallDepth.
	MaxCallDepth int
	// Fuel is the instruction budget per Invoke; 0 means unmetered. It is
	// read once per invocation (Invoke or a handle call), so adjusting
	// it between invocations takes effect on the next call.
	Fuel int64

	fuel    int64
	metered bool
	depth   int

	// Sampling-profiler state (see OptVM.SetProfile). The baseline VM
	// meters per instruction, so the countdown ticks per instruction;
	// unlike fuel it runs even when no budget is set.
	prof      *telemetry.ProfScope
	profEvery int64
	profTick  int64
}

// SetProfile attaches a sampling-profiler scope: every `every` retired
// instructions record one sample of weight `every` against the current
// function and source line. A nil scope detaches.
func (v *VM) SetProfile(s *telemetry.ProfScope, every int64) {
	if s == nil || every < 1 {
		v.prof, v.profEvery, v.profTick = nil, 0, 0
		return
	}
	v.prof, v.profEvery, v.profTick = s, every, every
}

// New verifies mod and prepares a VM over m with the given policy.
func New(mod *bytecode.Module, m *mem.Memory, cfg mem.Config) (*VM, error) {
	shapes, err := bytecode.VerifyShapes(mod)
	if err != nil {
		return nil, err
	}
	v := &VM{entries: entries{mod: mod}, mem: m, cfg: cfg}
	v.maxStack = make([]int, len(mod.Funcs))
	for i, s := range shapes {
		v.maxStack[i] = s.MaxStack
	}
	v.handles = make([]handle, len(mod.Funcs))
	for i := range v.handles {
		v.handles[i] = func(_ telemetry.SpanCtx, args []uint32) (uint32, int64, error) {
			r, err := v.invoke(i, args)
			return r, v.fuelUsed(), err
		}
	}
	return v, nil
}

// Memory returns the linear memory the VM executes against.
func (v *VM) Memory() *mem.Memory { return v.mem }

// invoke is the single entry path behind every handle, so fuel
// metering is decided in exactly one place per invocation.
func (v *VM) invoke(idx int, args []uint32) (result uint32, err error) {
	f := v.mod.Funcs[idx]
	if len(args) != f.NArgs {
		return 0, fmt.Errorf("vm: %q takes %d args, got %d", f.Name, f.NArgs, len(args))
	}
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(*mem.Trap); ok {
				err = t
				return
			}
			panic(r)
		}
	}()
	v.fuel = v.Fuel
	v.metered = v.Fuel > 0
	v.depth = 0
	return v.call(idx, args), nil
}

// handle is a resolved entry point in the tech.Handle convention: span
// context and args in; value, fuel charged and error out.
type handle = func(ctx telemetry.SpanCtx, args []uint32) (uint32, int64, error)

// entries is the entry surface both VMs share: the module and one
// handle per function, built at load.
type entries struct {
	mod     *bytecode.Module
	handles []handle
}

// Resolve returns the named function's handle, built at load. Fuel is
// read when the handle is called, not when it is resolved; like Invoke,
// a handle must not run concurrently with another call on the same VM.
func (e *entries) Resolve(entry string) (handle, bool) {
	idx, ok := e.mod.ByName[entry]
	if !ok {
		return nil, false
	}
	return e.handles[idx], true
}

// Invoke runs the named function with args through its handle. A trap
// is returned as a *mem.Trap error; the host survives.
func (e *entries) Invoke(entry string, args ...uint32) (uint32, error) {
	h, ok := e.Resolve(entry)
	if !ok {
		return 0, fmt.Errorf("vm: no function %q", entry)
	}
	r, _, err := h(telemetry.SpanCtx{}, args)
	return r, err
}

// fuelUsed reports the fuel the most recent invocation consumed (0 when
// unmetered — the baseline interpreter only decrements fuel when a
// budget is set).
func (v *VM) fuelUsed() int64 {
	if !v.metered {
		return 0
	}
	used := v.Fuel - v.fuel
	if used > v.Fuel {
		used = v.Fuel // fuel trap leaves the counter at -1
	}
	if used < 0 {
		used = 0
	}
	return used
}

func (v *VM) call(idx int, args []uint32) uint32 {
	maxDepth := v.MaxCallDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxCallDepth
	}
	v.depth++
	if v.depth > maxDepth {
		throwAt(mem.TrapStackOverflow, 0, 0)
	}
	defer func() { v.depth-- }()

	f := v.mod.Funcs[idx]
	locals := make([]uint32, f.NLocals)
	copy(locals, args)
	stack := make([]uint32, 0, v.maxStack[idx])

	code := f.Code
	data := v.mem.Data
	checked := v.cfg.Policy == mem.PolicyChecked
	nilCheck := checked && v.cfg.NilCheck
	sandbox := v.cfg.Policy == mem.PolicySandbox
	readProtect := sandbox && v.cfg.ReadProtect
	mask := v.mem.Mask()
	metered := v.metered
	faults := v.mem.Faults()

	pc := 0
	for {
		if metered {
			v.fuel--
			if v.fuel < 0 {
				throwAt(mem.TrapFuel, 0, pc)
			}
		}
		if v.profEvery != 0 {
			v.profTick--
			if v.profTick <= 0 {
				v.profTick += v.profEvery
				v.prof.Hit(f.Name, f.Line(pc), v.profEvery)
			}
		}
		in := code[pc]
		switch in.Op {
		case bytecode.OpNop:
		case bytecode.OpConst:
			stack = append(stack, in.A)
		case bytecode.OpLocalGet:
			stack = append(stack, locals[in.A])
		case bytecode.OpLocalSet:
			locals[in.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case bytecode.OpDrop:
			stack = stack[:len(stack)-1]
		case bytecode.OpAdd:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] += y
		case bytecode.OpSub:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] -= y
		case bytecode.OpMul:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] *= y
		case bytecode.OpDivU:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if y == 0 {
				throwAt(mem.TrapDivZero, 0, pc)
			}
			stack[len(stack)-1] /= y
		case bytecode.OpRemU:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if y == 0 {
				throwAt(mem.TrapDivZero, 0, pc)
			}
			stack[len(stack)-1] %= y
		case bytecode.OpAnd:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] &= y
		case bytecode.OpOr:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] |= y
		case bytecode.OpXor:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] ^= y
		case bytecode.OpShl:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] <<= y & 31
		case bytecode.OpShrU:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] >>= y & 31
		case bytecode.OpRotl:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = bits.RotateLeft32(stack[len(stack)-1], int(y&31))
		case bytecode.OpRotr:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = bits.RotateLeft32(stack[len(stack)-1], -int(y&31))
		case bytecode.OpMinU:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if y < stack[len(stack)-1] {
				stack[len(stack)-1] = y
			}
		case bytecode.OpMaxU:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if y > stack[len(stack)-1] {
				stack[len(stack)-1] = y
			}
		case bytecode.OpEq:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = b2u(stack[len(stack)-1] == y)
		case bytecode.OpNe:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = b2u(stack[len(stack)-1] != y)
		case bytecode.OpLtU:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = b2u(stack[len(stack)-1] < y)
		case bytecode.OpLeU:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = b2u(stack[len(stack)-1] <= y)
		case bytecode.OpGtU:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = b2u(stack[len(stack)-1] > y)
		case bytecode.OpGeU:
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = b2u(stack[len(stack)-1] >= y)
		case bytecode.OpEqz:
			stack[len(stack)-1] = b2u(stack[len(stack)-1] == 0)
		case bytecode.OpLd32:
			a := stack[len(stack)-1]
			if faults != nil {
				faultCheck(faults, false, a, pc)
			}
			if checked {
				if nilCheck && a < mem.NilPageSize {
					throwAt(mem.TrapNilDeref, a, pc)
				}
				if uint64(a)+4 > uint64(len(data)) {
					throwAt(mem.TrapOOBLoad, a, pc)
				}
			} else if readProtect {
				a = a & mask &^ 3
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, pc) // unsafe-policy backstop: models the crash
			}
			stack[len(stack)-1] = uint32(data[a]) | uint32(data[a+1])<<8 |
				uint32(data[a+2])<<16 | uint32(data[a+3])<<24
		case bytecode.OpLd8:
			a := stack[len(stack)-1]
			if faults != nil {
				faultCheck(faults, false, a, pc)
			}
			if checked {
				if nilCheck && a < mem.NilPageSize {
					throwAt(mem.TrapNilDeref, a, pc)
				}
				if a >= uint32(len(data)) {
					throwAt(mem.TrapOOBLoad, a, pc)
				}
			} else if readProtect {
				a &= mask
			}
			if a >= uint32(len(data)) {
				throwAt(mem.TrapOOBLoad, a, pc)
			}
			stack[len(stack)-1] = uint32(data[a])
		case bytecode.OpSt32:
			val := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if faults != nil {
				faultCheck(faults, true, a, pc)
			}
			if checked {
				if nilCheck && a < mem.NilPageSize {
					throwAt(mem.TrapNilDeref, a, pc)
				}
				if uint64(a)+4 > uint64(len(data)) {
					throwAt(mem.TrapOOBStore, a, pc)
				}
			} else if sandbox {
				a = a & mask &^ 3
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBStore, a, pc)
			}
			data[a] = byte(val)
			data[a+1] = byte(val >> 8)
			data[a+2] = byte(val >> 16)
			data[a+3] = byte(val >> 24)
		case bytecode.OpSt8:
			val := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if faults != nil {
				faultCheck(faults, true, a, pc)
			}
			if checked {
				if nilCheck && a < mem.NilPageSize {
					throwAt(mem.TrapNilDeref, a, pc)
				}
				if a >= uint32(len(data)) {
					throwAt(mem.TrapOOBStore, a, pc)
				}
			} else if sandbox {
				a &= mask
			}
			if a >= uint32(len(data)) {
				throwAt(mem.TrapOOBStore, a, pc)
			}
			data[a] = byte(val)
		case bytecode.OpJmp:
			pc = int(in.A)
			continue
		case bytecode.OpJz:
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if c == 0 {
				pc = int(in.A)
				continue
			}
		case bytecode.OpJnz:
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if c != 0 {
				pc = int(in.A)
				continue
			}
		case bytecode.OpCall:
			callee := v.mod.Funcs[in.A]
			nargs := callee.NArgs
			res := v.call(int(in.A), stack[len(stack)-nargs:])
			stack = stack[:len(stack)-nargs]
			stack = append(stack, res)
		case bytecode.OpRet:
			return stack[len(stack)-1]
		case bytecode.OpMemSize:
			stack = append(stack, uint32(len(data)))
		case bytecode.OpAbort:
			code := stack[len(stack)-1]
			panic(&mem.Trap{Kind: mem.TrapAbort, Code: code, PC: pc})
		default:
			throwAt(mem.TrapUnreachable, 0, pc)
		}
		pc++
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
