// The optimizing translator: a load-time pass that lowers verified bytecode
// into a pre-decoded internal form executed by OptVM. It embodies the same
// semantics as the baseline VM (vm.go) — the two are differentially tested
// against each other — but closes part of the interpretation gap the paper
// measured for the VM technology class (Java ≈ 13–113× unsafe C) the way
// modern in-kernel runtimes do: verify once, translate once, then run a
// specialized loop.
//
// Four optimizations, all decided at load time:
//
//  1. Pre-decoded dispatch. Each xinstr carries its operands, branch target
//     (as an index into the translated code), and fuel cost, so the hot loop
//     never re-decodes or re-maps anything.
//
//  2. Superinstruction fusion. The dominant GEL codegen sequences —
//     local/const operand fetches feeding an ALU op, compare+branch pairs,
//     address-computation+load chains — are collapsed into single opcodes
//     that retire 2–6 original instructions per dispatch. Fusion never
//     crosses a basic-block boundary, so every jump target still begins a
//     translated instruction.
//
//  3. Basic-block-granular fuel. Instead of decrementing fuel per
//     instruction, the translator attaches each block's instruction count to
//     the block's first xinstr and the loop charges it once on entry. A
//     block runs to completion once entered (branches and terminators end
//     blocks), so a trace that completes consumes exactly the same fuel as
//     under per-instruction metering: the preemption guarantee of §4 is
//     preserved with the same budget threshold. The only divergence is for
//     traces that trap mid-block: the optimized engine may report fuel
//     exhaustion up to one block early (bounded overshoot), which the
//     differential tests permit.
//
//  4. Policy specialization. The memory policy (checked/nil-check/sandbox/
//     read-protect) is baked into the opcode at translate time — xLd32N vs
//     xLd32S — so the per-access path has no policy branches at all.
//
// Frames live in a per-VM arena (frame reuse): steady-state Invoke performs
// no allocation, which matters on the paper's hot hook paths (262,144
// logical-disk writes, per-eviction hot-list search).
package vm

import (
	"fmt"
	"math/bits"

	"graftlab/internal/bytecode"
	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

// xop is an opcode of the translated form. Values below bytecode.NumOps are
// untouched bytecode opcodes executed 1:1; values above are extended
// (policy-specialized or fused) opcodes.
type xop uint16

// Direct aliases for the bytecode opcodes the translator passes through.
const (
	xNop      = xop(bytecode.OpNop)
	xConst    = xop(bytecode.OpConst)
	xLocalGet = xop(bytecode.OpLocalGet)
	xLocalSet = xop(bytecode.OpLocalSet)
	xDrop     = xop(bytecode.OpDrop)
	xEqz      = xop(bytecode.OpEqz)
	xJmp      = xop(bytecode.OpJmp)
	xJz       = xop(bytecode.OpJz)
	xJnz      = xop(bytecode.OpJnz)
	xCall     = xop(bytecode.OpCall)
	xRet      = xop(bytecode.OpRet)
	xMemSize  = xop(bytecode.OpMemSize)
	xAbort    = xop(bytecode.OpAbort)
)

// Extended opcodes. Memory opcodes come in policy triples ordered U, N, S
// (offset 0, 1, 2): U performs the unsafe-policy bounds backstop (which is
// also the observable behavior of the checked policy without nil checks),
// N adds the nil-page trap, S applies the sandbox mask (after which the
// access is in range by construction, so no check remains).
const (
	// xBin2 pops y then x and pushes sub(x, y); sub selects the ALU op.
	xBin2 xop = xop(bytecode.NumOps) + iota

	// Plain policy-specialized memory ops; address from the stack.
	xLd32U
	xLd32N
	xLd32S
	xLd8U
	xLd8N
	xLd8S
	xSt32U
	xSt32N
	xSt32S
	xSt8U
	xSt8N
	xSt8S

	// Fused ALU: operands fetched from locals/immediates in one dispatch.
	xLLBin // push sub(locals[a], locals[b])
	xLCBin // push sub(locals[a], b)
	xLBin  // x = pop; push sub(x, locals[a])
	xCBin  // x = pop; push sub(x, a)

	// Fused compare+branch; sub is the comparison.
	xCmpJz    // y, x = pop, pop; jump if sub(x,y) == 0
	xCmpJnz   // y, x = pop, pop; jump if sub(x,y) != 0
	xLCmpJz   // x = pop; jump if sub(x, locals[a]) == 0
	xLCmpJnz  // x = pop; jump if sub(x, locals[a]) != 0
	xLCCmpJz  // jump if sub(locals[a], b) == 0
	xLCCmpJnz // jump if sub(locals[a], b) != 0
	xLLCmpJz  // jump if sub(locals[a], locals[b]) == 0
	xLLCmpJnz // jump if sub(locals[a], locals[b]) != 0
	xEqzJz    // x = pop; jump if x != 0   (Eqz;Jz == jump-if-nonzero)
	xEqzJnz   // x = pop; jump if x == 0

	// Fused local moves.
	xMov  // locals[b] = locals[a]
	xSetC // locals[b] = a

	// Fused 32-bit loads; address mode in the name, policy triple U/N/S.
	xLdL32U // addr = locals[a]
	xLdL32N
	xLdL32S
	xLdC32U // addr = a
	xLdC32N
	xLdC32S
	xLdCI32U // addr = a + locals[b]*c (indexed: Const base)
	xLdCI32N
	xLdCI32S
	xLdLI32U // addr = locals[a] + locals[b]*c (indexed: local base)
	xLdLI32N
	xLdLI32S

	// Fused 32-bit stores; value in the name, address popped.
	xStL32U // value = locals[a]
	xStL32N
	xStL32S
	xStC32U // value = a
	xStC32N
	xStC32S

	// Fused ALU+assign: <binop>; local.set collapsed into one dispatch.
	// These are the only superinstructions whose trapping component (the
	// binop, for div/rem) is not last; translate records the binop's pc.
	xBinSet   // y, x = pop, pop; locals[a] = sub(x, y)
	xLBinSet  // x = pop; locals[b] = sub(x, locals[a])
	xCBinSet  // x = pop; locals[b] = sub(x, a)
	xLLBinSet // locals[c] = sub(locals[a], locals[b])
	xLCBinSet // locals[c] = sub(locals[a], b)

	// Deeper ALU fusion. Interior ops are restricted to non-trapping
	// binops (no div/rem) so the recorded pc stays the trap pc.
	xCBB // x = pop; push c2(pop, sub(x, a)) — the "+k*scale" tails; c2 in c
	// Fused address-compute loads: <binop>; ld32, policy triple U/N/S.
	xBinLd32U // y, x = pop, pop; push load(sub(x, y))
	xBinLd32N
	xBinLd32S
	// Fused load+use: ld32; <binop> (non-trapping binop; trap pc is the
	// load's, recorded by translate). Policy triple U/N/S.
	xLd32BinU // a = pop; push sub(pop, load(a))
	xLd32BinN
	xLd32BinS

	xLLPush // push locals[a]; push locals[b] — weakest LG pairing
)

// xinstr is one pre-decoded instruction.
type xinstr struct {
	op   xop
	sub  bytecode.Op // ALU/comparison selector for xBin2 and fused ops
	n    uint8       // original instructions this xinstr retires
	cost uint32      // fuel charged when this xinstr begins a basic block
	a    uint32      // immediate: constant, local slot, base, func index
	b    uint32      // immediate: second local slot or constant
	c    uint32      // immediate: index scale for xLd?I32
	t    int32       // branch target (index into translated code)
	pc   int32       // original pc of the LAST retired instruction (trap pc)
}

// xfunc is one translated function.
type xfunc struct {
	name     string
	nargs    int
	nlocals  int
	maxStack int
	code     []xinstr
	lines    []int32 // debug line table of the source Func, indexed by original pc
}

// line resolves an original pc to its 1-based source line (0 when the
// module carries no line table).
func (f *xfunc) line(pc int) int {
	if pc >= 0 && pc < len(f.lines) {
		return int(f.lines[pc])
	}
	return 0
}

// OptConfig selects translator ablations; the zero value is the full
// optimizing configuration.
type OptConfig struct {
	// NoFuse disables superinstruction fusion: every bytecode instruction
	// translates 1:1 (pre-decoding and policy specialization remain).
	NoFuse bool
	// PerInstrFuel charges fuel per retired instruction instead of once
	// per basic block, matching the baseline's metering granularity.
	PerInstrFuel bool
}

// unmeteredFuel is the budget used when Fuel == 0. The loop always meters
// (that keeps it branch-free on the policy), so "unmetered" is modeled as a
// budget no terrestrial workload exhausts.
const unmeteredFuel = int64(1) << 62

// OptVM executes a translated module. It is a drop-in alternative to VM:
// same Invoke/Resolve/Memory surface, same trap semantics (differentially
// tested), same Fuel/MaxCallDepth knobs.
//
// Concurrency: like VM, an OptVM is NOT safe for concurrent use — the fuel
// counter, call depth, and frame arena are all per-VM state. Fuel is
// sampled exactly once at the start of each invocation.
type OptVM struct {
	entries
	mem *mem.Memory
	fns []xfunc

	// MaxCallDepth bounds recursion; 0 means DefaultMaxCallDepth.
	MaxCallDepth int
	// Fuel is the instruction budget per Invoke; 0 means unmetered. Read
	// once per invocation.
	Fuel int64

	fuel     int64
	depth    int
	arena    []uint32 // frame arena: locals+stack of the active call chain
	arenaTop int

	// Sampling-profiler state (see SetProfile). profEvery == 0 — the
	// default — reduces the hook to one predictable branch per fuel
	// charge, i.e. per basic block.
	prof      *telemetry.ProfScope
	profEvery int64
	profTick  int64
}

// SetProfile attaches a sampling-profiler scope: every `every` executed
// fuel units (≈ retired instructions) record one sample of weight
// `every` against the current function and source line, piggybacking on
// the block-granular fuel charge. A nil scope detaches.
func (v *OptVM) SetProfile(s *telemetry.ProfScope, every int64) {
	if s == nil || every < 1 {
		v.prof, v.profEvery, v.profTick = nil, 0, 0
		return
	}
	v.prof, v.profEvery, v.profTick = s, every, every
}

// NewOpt verifies mod and translates it for execution against m under cfg.
func NewOpt(mod *bytecode.Module, m *mem.Memory, cfg mem.Config, oc OptConfig) (*OptVM, error) {
	shapes, err := bytecode.VerifyShapes(mod)
	if err != nil {
		return nil, err
	}
	if m.Faults() != nil {
		// Fault injection schedules traps on individual retired accesses;
		// fused superinstructions collapse several accesses into one
		// opcode, so arming forces plain translation. Load-time decision:
		// an unarmed memory keeps the fused fast path untouched.
		oc.NoFuse = true
	}
	v := &OptVM{entries: entries{mod: mod}, mem: m}
	v.fns = make([]xfunc, len(mod.Funcs))
	for i, f := range mod.Funcs {
		xf, err := translate(f, shapes[i].MaxStack, cfg, oc)
		if err != nil {
			return nil, err
		}
		v.fns[i] = xf
	}
	v.handles = make([]handle, len(v.fns))
	for i := range v.handles {
		v.handles[i] = func(_ telemetry.SpanCtx, args []uint32) (uint32, int64, error) {
			r, err := v.invoke(i, args)
			return r, v.fuelUsed(), err
		}
	}
	return v, nil
}

// Memory returns the linear memory the VM executes against.
func (v *OptVM) Memory() *mem.Memory { return v.mem }

func (v *OptVM) invoke(idx int, args []uint32) (result uint32, err error) {
	fn := &v.fns[idx]
	if len(args) != fn.nargs {
		return 0, fmt.Errorf("vm: %q takes %d args, got %d", fn.name, fn.nargs, len(args))
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
	if v.Fuel > 0 {
		v.fuel = v.Fuel
	} else {
		v.fuel = unmeteredFuel
	}
	v.depth = 0
	v.arenaTop = 0
	return v.call(idx, args), nil
}

// fuelUsed reports the fuel the most recent invocation consumed. The
// optimized engine always meters (against unmeteredFuel when no budget
// is set), so this approximates instructions retired — block-granular,
// like the metering itself — even for unmetered grafts.
func (v *OptVM) fuelUsed() int64 {
	start := v.Fuel
	if start <= 0 {
		start = unmeteredFuel
	}
	used := start - v.fuel
	if v.Fuel > 0 && used > v.Fuel {
		used = v.Fuel // fuel trap leaves the counter below zero
	}
	if used < 0 {
		used = 0
	}
	return used
}

// call allocates the callee's frame from the arena, runs it, and releases
// the frame. Frames are plain bump allocations: callers hold slices into
// the arena, so growing it (a fresh backing array) leaves their regions
// valid in the old array — every frame is only ever touched through the
// slices captured when it was created.
func (v *OptVM) call(idx int, args []uint32) uint32 {
	maxDepth := v.MaxCallDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxCallDepth
	}
	v.depth++
	if v.depth > maxDepth {
		throwAt(mem.TrapStackOverflow, 0, 0)
	}
	fn := &v.fns[idx]
	base := v.arenaTop
	need := fn.nlocals + fn.maxStack
	if base+need > len(v.arena) {
		grown := make([]uint32, base+need+256)
		copy(grown, v.arena)
		v.arena = grown
	}
	frame := v.arena[base : base+need]
	locals := frame[:fn.nlocals:fn.nlocals]
	n := copy(locals, args)
	for j := n; j < len(locals); j++ {
		locals[j] = 0
	}
	v.arenaTop = base + need
	r := v.exec(fn, locals, frame[fn.nlocals:])
	v.arenaTop = base
	v.depth--
	return r
}

func (v *OptVM) exec(fn *xfunc, locals, stack []uint32) uint32 {
	code := fn.code
	data := v.mem.Data
	mask := v.mem.Mask()
	faults := v.mem.Faults()
	pc := 0
	sp := 0
	for {
		in := &code[pc]
		if in.cost != 0 {
			v.fuel -= int64(in.cost)
			if v.fuel < 0 {
				throwAt(mem.TrapFuel, 0, int(in.pc))
			}
			if v.profEvery != 0 {
				v.profTick -= int64(in.cost)
				if v.profTick <= 0 {
					v.profTick += v.profEvery
					v.prof.Hit(fn.name, fn.line(int(in.pc)), v.profEvery)
				}
			}
		}
		switch in.op {
		case xNop:
		case xConst:
			stack[sp] = in.a
			sp++
		case xLocalGet:
			stack[sp] = locals[in.a]
			sp++
		case xLocalSet:
			sp--
			locals[in.a] = stack[sp]
		case xDrop:
			sp--
		case xEqz:
			stack[sp-1] = b2u(stack[sp-1] == 0)
		case xBin2:
			y := stack[sp-1]
			sp--
			stack[sp-1] = binEval(in.sub, stack[sp-1], y, in.pc)
		case xJmp:
			pc = int(in.t)
			continue
		case xJz:
			sp--
			if stack[sp] == 0 {
				pc = int(in.t)
				continue
			}
		case xJnz:
			sp--
			if stack[sp] != 0 {
				pc = int(in.t)
				continue
			}
		case xCall:
			na := v.fns[in.a].nargs
			sp -= na
			stack[sp] = v.call(int(in.a), stack[sp:sp+na])
			sp++
		case xRet:
			return stack[sp-1]
		case xMemSize:
			stack[sp] = uint32(len(data))
			sp++
		case xAbort:
			panic(&mem.Trap{Kind: mem.TrapAbort, Code: stack[sp-1], PC: int(in.pc)})

		case xLd32U:
			a := stack[sp-1]
			if faults != nil {
				faultCheck(faults, false, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp-1] = ldw(data, a)
		case xLd32N:
			a := stack[sp-1]
			if faults != nil {
				faultCheck(faults, false, a, int(in.pc))
			}
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp-1] = ldw(data, a)
		case xLd32S:
			a := stack[sp-1]
			if faults != nil {
				faultCheck(faults, false, a, int(in.pc))
			}
			stack[sp-1] = ldw(data, a&mask&^3)
		case xLd8U:
			a := stack[sp-1]
			if faults != nil {
				faultCheck(faults, false, a, int(in.pc))
			}
			if a >= uint32(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp-1] = uint32(data[a])
		case xLd8N:
			a := stack[sp-1]
			if faults != nil {
				faultCheck(faults, false, a, int(in.pc))
			}
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if a >= uint32(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp-1] = uint32(data[a])
		case xLd8S:
			a := stack[sp-1]
			if faults != nil {
				faultCheck(faults, false, a, int(in.pc))
			}
			stack[sp-1] = uint32(data[a&mask])
		case xSt32U:
			val := stack[sp-1]
			a := stack[sp-2]
			sp -= 2
			if faults != nil {
				faultCheck(faults, true, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBStore, a, int(in.pc))
			}
			stw(data, a, val)
		case xSt32N:
			val := stack[sp-1]
			a := stack[sp-2]
			sp -= 2
			if faults != nil {
				faultCheck(faults, true, a, int(in.pc))
			}
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBStore, a, int(in.pc))
			}
			stw(data, a, val)
		case xSt32S:
			val := stack[sp-1]
			a := stack[sp-2]
			sp -= 2
			if faults != nil {
				faultCheck(faults, true, a, int(in.pc))
			}
			stw(data, a&mask&^3, val)
		case xSt8U:
			val := stack[sp-1]
			a := stack[sp-2]
			sp -= 2
			if faults != nil {
				faultCheck(faults, true, a, int(in.pc))
			}
			if a >= uint32(len(data)) {
				throwAt(mem.TrapOOBStore, a, int(in.pc))
			}
			data[a] = byte(val)
		case xSt8N:
			val := stack[sp-1]
			a := stack[sp-2]
			sp -= 2
			if faults != nil {
				faultCheck(faults, true, a, int(in.pc))
			}
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if a >= uint32(len(data)) {
				throwAt(mem.TrapOOBStore, a, int(in.pc))
			}
			data[a] = byte(val)
		case xSt8S:
			val := stack[sp-1]
			a := stack[sp-2]
			sp -= 2
			if faults != nil {
				faultCheck(faults, true, a, int(in.pc))
			}
			data[a&mask] = byte(val)

		case xLLBin:
			stack[sp] = binEval(in.sub, locals[in.a], locals[in.b], in.pc)
			sp++
		case xLCBin:
			stack[sp] = binEval(in.sub, locals[in.a], in.b, in.pc)
			sp++
		case xLBin:
			stack[sp-1] = binEval(in.sub, stack[sp-1], locals[in.a], in.pc)
		case xCBin:
			stack[sp-1] = binEval(in.sub, stack[sp-1], in.a, in.pc)

		case xCmpJz:
			y := stack[sp-1]
			x := stack[sp-2]
			sp -= 2
			if binEval(in.sub, x, y, in.pc) == 0 {
				pc = int(in.t)
				continue
			}
		case xCmpJnz:
			y := stack[sp-1]
			x := stack[sp-2]
			sp -= 2
			if binEval(in.sub, x, y, in.pc) != 0 {
				pc = int(in.t)
				continue
			}
		case xLCmpJz:
			sp--
			if binEval(in.sub, stack[sp], locals[in.a], in.pc) == 0 {
				pc = int(in.t)
				continue
			}
		case xLCmpJnz:
			sp--
			if binEval(in.sub, stack[sp], locals[in.a], in.pc) != 0 {
				pc = int(in.t)
				continue
			}
		case xLCCmpJz:
			if binEval(in.sub, locals[in.a], in.b, in.pc) == 0 {
				pc = int(in.t)
				continue
			}
		case xLCCmpJnz:
			if binEval(in.sub, locals[in.a], in.b, in.pc) != 0 {
				pc = int(in.t)
				continue
			}
		case xLLCmpJz:
			if binEval(in.sub, locals[in.a], locals[in.b], in.pc) == 0 {
				pc = int(in.t)
				continue
			}
		case xLLCmpJnz:
			if binEval(in.sub, locals[in.a], locals[in.b], in.pc) != 0 {
				pc = int(in.t)
				continue
			}
		case xEqzJz:
			sp--
			if stack[sp] != 0 {
				pc = int(in.t)
				continue
			}
		case xEqzJnz:
			sp--
			if stack[sp] == 0 {
				pc = int(in.t)
				continue
			}

		case xMov:
			locals[in.b] = locals[in.a]
		case xSetC:
			locals[in.b] = in.a

		case xBinSet:
			y := stack[sp-1]
			x := stack[sp-2]
			sp -= 2
			locals[in.a] = binEval(in.sub, x, y, in.pc)
		case xLBinSet:
			sp--
			locals[in.b] = binEval(in.sub, stack[sp], locals[in.a], in.pc)
		case xCBinSet:
			sp--
			locals[in.b] = binEval(in.sub, stack[sp], in.a, in.pc)
		case xLLBinSet:
			locals[in.c] = binEval(in.sub, locals[in.a], locals[in.b], in.pc)
		case xLCBinSet:
			locals[in.c] = binEval(in.sub, locals[in.a], in.b, in.pc)

		case xCBB:
			x := stack[sp-1]
			sp--
			stack[sp-1] = binEval(bytecode.Op(in.c), stack[sp-1], binEval(in.sub, x, in.a, in.pc), in.pc)
		case xBinLd32U:
			y := stack[sp-1]
			sp--
			a := binEval(in.sub, stack[sp-1], y, in.pc)
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp-1] = ldw(data, a)
		case xBinLd32N:
			y := stack[sp-1]
			sp--
			a := binEval(in.sub, stack[sp-1], y, in.pc)
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp-1] = ldw(data, a)
		case xBinLd32S:
			y := stack[sp-1]
			sp--
			stack[sp-1] = ldw(data, binEval(in.sub, stack[sp-1], y, in.pc)&mask&^3)
		case xLd32BinU:
			a := stack[sp-1]
			sp--
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp-1] = binEval(in.sub, stack[sp-1], ldw(data, a), in.pc)
		case xLd32BinN:
			a := stack[sp-1]
			sp--
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp-1] = binEval(in.sub, stack[sp-1], ldw(data, a), in.pc)
		case xLd32BinS:
			a := stack[sp-1]
			sp--
			stack[sp-1] = binEval(in.sub, stack[sp-1], ldw(data, a&mask&^3), in.pc)

		case xLLPush:
			stack[sp] = locals[in.a]
			stack[sp+1] = locals[in.b]
			sp += 2

		case xLdL32U:
			a := locals[in.a]
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp] = ldw(data, a)
			sp++
		case xLdL32N:
			a := locals[in.a]
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp] = ldw(data, a)
			sp++
		case xLdL32S:
			stack[sp] = ldw(data, locals[in.a]&mask&^3)
			sp++
		case xLdC32U:
			a := in.a
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp] = ldw(data, a)
			sp++
		case xLdC32N:
			a := in.a
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp] = ldw(data, a)
			sp++
		case xLdC32S:
			stack[sp] = ldw(data, in.a&mask&^3)
			sp++
		case xLdCI32U:
			a := in.a + locals[in.b]*in.c
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp] = ldw(data, a)
			sp++
		case xLdCI32N:
			a := in.a + locals[in.b]*in.c
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp] = ldw(data, a)
			sp++
		case xLdCI32S:
			stack[sp] = ldw(data, (in.a+locals[in.b]*in.c)&mask&^3)
			sp++
		case xLdLI32U:
			a := locals[in.a] + locals[in.b]*in.c
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp] = ldw(data, a)
			sp++
		case xLdLI32N:
			a := locals[in.a] + locals[in.b]*in.c
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBLoad, a, int(in.pc))
			}
			stack[sp] = ldw(data, a)
			sp++
		case xLdLI32S:
			stack[sp] = ldw(data, (locals[in.a]+locals[in.b]*in.c)&mask&^3)
			sp++

		case xStL32U:
			sp--
			a := stack[sp]
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBStore, a, int(in.pc))
			}
			stw(data, a, locals[in.a])
		case xStL32N:
			sp--
			a := stack[sp]
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBStore, a, int(in.pc))
			}
			stw(data, a, locals[in.a])
		case xStL32S:
			sp--
			stw(data, stack[sp]&mask&^3, locals[in.a])
		case xStC32U:
			sp--
			a := stack[sp]
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBStore, a, int(in.pc))
			}
			stw(data, a, in.a)
		case xStC32N:
			sp--
			a := stack[sp]
			if a < mem.NilPageSize {
				throwAt(mem.TrapNilDeref, a, int(in.pc))
			}
			if uint64(a)+4 > uint64(len(data)) {
				throwAt(mem.TrapOOBStore, a, int(in.pc))
			}
			stw(data, a, in.a)
		case xStC32S:
			sp--
			stw(data, stack[sp]&mask&^3, in.a)

		default:
			throwAt(mem.TrapUnreachable, 0, int(in.pc))
		}
		pc++
	}
}

// ldw/stw are the little-endian word accessors; the Go compiler recognizes
// the idiom and emits single loads/stores.
func ldw(data []byte, a uint32) uint32 {
	d := data[a : a+4 : a+4]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24
}

func stw(data []byte, a, val uint32) {
	d := data[a : a+4 : a+4]
	d[0] = byte(val)
	d[1] = byte(val >> 8)
	d[2] = byte(val >> 16)
	d[3] = byte(val >> 24)
}

// binEval evaluates the binary ALU/comparison op selected by sub; pc is the
// original program counter reported if the op traps (division by zero).
func binEval(sub bytecode.Op, x, y uint32, pc int32) uint32 {
	switch sub {
	case bytecode.OpAdd:
		return x + y
	case bytecode.OpSub:
		return x - y
	case bytecode.OpMul:
		return x * y
	case bytecode.OpDivU:
		if y == 0 {
			throwAt(mem.TrapDivZero, 0, int(pc))
		}
		return x / y
	case bytecode.OpRemU:
		if y == 0 {
			throwAt(mem.TrapDivZero, 0, int(pc))
		}
		return x % y
	case bytecode.OpAnd:
		return x & y
	case bytecode.OpOr:
		return x | y
	case bytecode.OpXor:
		return x ^ y
	case bytecode.OpShl:
		return x << (y & 31)
	case bytecode.OpShrU:
		return x >> (y & 31)
	case bytecode.OpRotl:
		return bits.RotateLeft32(x, int(y&31))
	case bytecode.OpRotr:
		return bits.RotateLeft32(x, -int(y&31))
	case bytecode.OpMinU:
		if y < x {
			return y
		}
		return x
	case bytecode.OpMaxU:
		if y > x {
			return y
		}
		return x
	case bytecode.OpEq:
		return b2u(x == y)
	case bytecode.OpNe:
		return b2u(x != y)
	case bytecode.OpLtU:
		return b2u(x < y)
	case bytecode.OpLeU:
		return b2u(x <= y)
	case bytecode.OpGtU:
		return b2u(x > y)
	case bytecode.OpGeU:
		return b2u(x >= y)
	}
	throwAt(mem.TrapUnreachable, 0, int(pc))
	return 0
}
