// Package aot is the repo's one closure-emitting backend: verified
// bytecode lowered at load time into closure-threaded Go. It carries two
// families of technology classes:
//
//   - the verified ahead-of-time class (tech.AOT), the load-time
//     verifier + translator pipeline modern in-kernel runtimes (eBPF)
//     use to collapse the paper's interpreter gap: safety is decided
//     once at load time and proven checks are elided (New);
//   - the five runtime-codegen classes (tech.NativeUnsafe ... SFIFull),
//     the paper's "generate native code at load time" line (§4.3): the
//     same translation with elision off, so every access pays its
//     policy — bounds check, NIL check, sandbox mask or crash backstop
//     — exactly the per-access cost the paper measures (NewNoElision).
//
// The pipeline:
//
//  1. Verify. bytecode.VerifyShapes supplies the structural guarantees
//     (valid opcodes, jump targets, stack discipline) and the stack
//     depths the translator rebuilds blocks from, in one pass. With
//     elision on, an abstract interpretation over u32 intervals
//     (analysis.go) then computes value ranges per local and stack
//     slot, with branch-edge refinement, and proves individual memory
//     accesses in-bounds against the declared policy and the bound
//     linear memory's size.
//
//  2. Translate. Verified bytecode is lowered into exprFn/stmtFn
//     closures specialized at load time, with the operand stack
//     dissolved into expression trees (a symbolic-stack pass,
//     translate.go), constants and local reads inlined into their
//     consumers, the memory policy specialized into each access
//     (emitmem.go: masked, proven, checked or armed), and fuel charged
//     once per basic block using the same bytecode.Leaders/BlockCosts
//     CFG the optimizing VM meters with, so fuel cliffs land on exactly
//     the same budget thresholds as both interpreters.
//
// Trap semantics (kind, address, code), fault-plan access ordering, and
// fuel accounting are differentially tested against vm.OptVM under
// every memory policy, with elision on and off; an armed fault plan
// disables deferral and elision at load time, exactly as it disables
// fusion in the optimizing VM.
package aot

import (
	"fmt"

	"graftlab/internal/bytecode"
	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

// DefaultMaxCallDepth bounds graft recursion, mirroring the VM's.
const DefaultMaxCallDepth = 256

// unmeteredFuel models "no budget" so the block prologue stays
// branch-predictable; same constant as the optimizing VM.
const unmeteredFuel = int64(1) << 62

// exprFn computes one u32 value against the current frame's registers.
type exprFn func(r []uint32) uint32

// stmtFn performs one effect (register write, store, call) against the
// current frame's registers.
type stmtFn func(r []uint32)

// blockFn executes one basic block and returns the index of the next
// block, or a negative value to return from the function.
type blockFn func(r []uint32) int32

// afunc is one translated function: its blocks, entered at index 0.
// A frame is nregs registers: NLocals locals followed by one canonical
// spill slot per operand-stack position.
type afunc struct {
	name   string
	nargs  int
	nregs  int
	blocks []blockFn
}

// blockMeta is the per-block fuel/profiling descriptor the prologue
// charges against.
type blockMeta struct {
	cost int64
	pc   int32
	name string
	line int
}

// Stats reports how far the verifier's proofs reached: accesses whose
// runtime checks were elided versus translated with the checked
// fallback. Loads and stores cover Ld8/Ld32/St8/St32 sites (static
// counts, not dynamic executions).
type Stats struct {
	Loads, ProvenLoads   int
	Stores, ProvenStores int
}

// Prog is a verified, translated module bound to one linear memory.
// Like the VM engines it is NOT safe for concurrent use: fuel, call
// depth, and the frame arena are per-Prog state; concurrent callers go
// through tech.Pool. Fuel is sampled once per invocation.
type Prog struct {
	mod *bytecode.Module
	m   *mem.Memory
	fns []afunc

	// MaxCallDepth bounds recursion; 0 means DefaultMaxCallDepth.
	MaxCallDepth int
	// Fuel is the instruction budget per Invoke; 0 means unmetered.
	Fuel int64

	fuel     int64
	depth    int
	arena    []uint32
	arenaTop int
	result   uint32
	stats    Stats

	prof      *telemetry.ProfScope
	profEvery int64
	profTick  int64
}

// New verifies mod — structurally via bytecode.VerifyShapes, then for
// memory safety via interval analysis — and translates it into
// closure-threaded form against m under cfg, eliding the checks the
// analysis proves redundant. The only rejections are the structural
// verifier's own: unprovable programs are translated with checked
// fallbacks, never refused.
func New(mod *bytecode.Module, m *mem.Memory, cfg mem.Config) (*Prog, error) {
	return build(mod, m, cfg, true)
}

// NewNoElision is New without the interval analysis: every memory access
// keeps its checked, masked or backstopped closure. The runtime-codegen
// technology classes load through it, so they pay the per-access policy
// cost the paper measures.
func NewNoElision(mod *bytecode.Module, m *mem.Memory, cfg mem.Config) (*Prog, error) {
	return build(mod, m, cfg, false)
}

func build(mod *bytecode.Module, m *mem.Memory, cfg mem.Config, elide bool) (*Prog, error) {
	shapes, err := bytecode.VerifyShapes(mod)
	if err != nil {
		return nil, err
	}
	p := &Prog{mod: mod, m: m}
	p.fns = make([]afunc, len(mod.Funcs))
	for i, f := range mod.Funcs {
		af, err := translateFunc(p, mod, f, shapes[i], m, cfg, elide)
		if err != nil {
			return nil, err
		}
		p.fns[i] = af
	}
	return p, nil
}

// Memory returns the linear memory the program executes against.
func (p *Prog) Memory() *mem.Memory { return p.m }

// VerifyStats reports the verifier's proof coverage over the translated
// module's memory accesses.
func (p *Prog) VerifyStats() Stats { return p.stats }

// SetProfile attaches a sampling-profiler scope: every `every` executed
// fuel units record one sample against the current function and source
// line, piggybacking on the block-granular fuel charge (same contract
// as the optimizing VM). A nil scope detaches.
func (p *Prog) SetProfile(s *telemetry.ProfScope, every int64) {
	if s == nil || every < 1 {
		p.prof, p.profEvery, p.profTick = nil, 0, 0
		return
	}
	p.prof, p.profEvery, p.profTick = s, every, every
}

// FuelUsed reports the fuel consumed by the most recent invocation.
// The translated form always meters (against unmeteredFuel when no
// budget is set), block-granular like the optimizing VM.
func (p *Prog) FuelUsed() int64 {
	start := p.Fuel
	if start <= 0 {
		start = unmeteredFuel
	}
	used := start - p.fuel
	if p.Fuel > 0 && used > p.Fuel {
		used = p.Fuel // fuel trap leaves the counter below zero
	}
	if used < 0 {
		used = 0
	}
	return used
}

// Invoke runs the named function with args. A trap is returned as a
// *mem.Trap error; the host survives.
func (p *Prog) Invoke(entry string, args ...uint32) (uint32, error) {
	idx, ok := p.mod.ByName[entry]
	if !ok {
		return 0, fmt.Errorf("aot: no function %q", entry)
	}
	return p.invoke(idx, args)
}

// Direct returns a pre-resolved entry point. Fuel is sampled when the
// closure is called; the closure must not be called concurrently with
// any other invocation on the same Prog.
func (p *Prog) Direct(entry string) (func(args []uint32) (uint32, error), bool) {
	idx, ok := p.mod.ByName[entry]
	if !ok {
		return nil, false
	}
	return func(args []uint32) (uint32, error) {
		return p.invoke(idx, args)
	}, true
}

func (p *Prog) invoke(idx int, args []uint32) (result uint32, err error) {
	fn := &p.fns[idx]
	if len(args) != fn.nargs {
		return 0, fmt.Errorf("aot: %q takes %d args, got %d", fn.name, fn.nargs, len(args))
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
	if p.Fuel > 0 {
		p.fuel = p.Fuel
	} else {
		p.fuel = unmeteredFuel
	}
	p.depth = 0
	p.arenaTop = 0
	return p.call(idx, args), nil
}

// call allocates the callee's registers from the arena, runs its block
// graph, and releases the frame. Bump allocation, like the VM's arena:
// growing swaps in a fresh backing array; parents keep touching their
// captured slices into the old one, which stay private to them.
func (p *Prog) call(idx int, args []uint32) uint32 {
	maxDepth := p.MaxCallDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxCallDepth
	}
	p.depth++
	if p.depth > maxDepth {
		throwAt(mem.TrapStackOverflow, 0, 0)
	}
	fn := &p.fns[idx]
	base := p.arenaTop
	need := fn.nregs
	if base+need > len(p.arena) {
		grown := make([]uint32, base+need+256)
		copy(grown, p.arena)
		p.arena = grown
	}
	regs := p.arena[base : base+need : base+need]
	n := copy(regs, args)
	nlocals := p.mod.Funcs[idx].NLocals
	for j := n; j < nlocals; j++ {
		regs[j] = 0
	}
	p.arenaTop = base + need
	blocks := fn.blocks
	b := int32(0)
	for b >= 0 {
		b = blocks[b](regs)
	}
	p.arenaTop = base
	p.depth--
	return p.result
}

// burn is the per-block prologue: charge the block's instruction count
// against the budget, trap on exhaustion, and feed the sampling
// profiler when one is attached.
func (p *Prog) burn(bm *blockMeta) {
	p.fuel -= bm.cost
	if p.fuel < 0 {
		throwAt(mem.TrapFuel, 0, int(bm.pc))
	}
	if p.profEvery != 0 {
		p.profTick -= bm.cost
		if p.profTick <= 0 {
			p.profTick += p.profEvery
			p.prof.Hit(bm.name, bm.line, p.profEvery)
		}
	}
}

// throwAt raises a trap recording the faulting bytecode pc — the same
// funneling the VM engines use, so differential tests can compare traps.
func throwAt(kind mem.TrapKind, addr uint32, pc int) {
	panic(&mem.Trap{Kind: kind, Addr: addr, PC: pc})
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// ldw/stw are the little-endian word accessors (the Go compiler lowers
// the idiom to single loads/stores).
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
