// Package tech is the extension-technology registry: one uniform way to
// load a graft source under any of the technology classes the paper
// compares, so the benchmark harness and the kernel hook points never care
// which class is behind a graft.
//
//	ID            paper technology            implementation
//	------------  --------------------------  -------------------------------
//	NativeUnsafe  C linked into the kernel    translated, PolicyUnsafe
//	NativeSafe    Modula-3 (Solaris/Alpha)    translated, PolicyChecked
//	NativeSafeNil Modula-3 (Linux, explicit   translated, PolicyChecked
//	              NIL checks, §5.4)           + NilCheck
//	SFI           Omniware beta (write/jump   translated, PolicySandbox
//	              sandboxing, no read prot.)
//	SFIFull       "SFI with full protection"  translated, PolicySandbox
//	              (§6 future candidate)       + ReadProtect
//	Bytecode      Java (Alpha 3 interpreter)  bytecode, vm
//	Script        Tcl 3.7                     mini-Tcl source interpreter
//	AOT           eBPF-style verified native  translated + interval proofs
//	              (post-paper practice)       eliding proven checks
//
// Every GEL class shares one front end: parse, check, and
// compile.Compile to verified bytecode. "Translated" is the closure
// backend in internal/aot; the runtime-codegen classes use it with
// proof-based elision off, so each access pays its policy. Fuel is
// therefore one unit — bytecode instructions, charged per basic block —
// for all seven bytecode-lowered classes.
//
// The user-level-server technology is not a loader but a wrapper; see
// package upcall.
package tech

import (
	"fmt"

	"graftlab/internal/aot"
	"graftlab/internal/bytecode"
	"graftlab/internal/compile"
	"graftlab/internal/gel"
	"graftlab/internal/hipec"
	"graftlab/internal/mem"
	"graftlab/internal/script"
	"graftlab/internal/telemetry"
	"graftlab/internal/vm"
)

// Graft is a loaded extension: named entry points over a shared linear
// memory. Invoke returns the entry point's u32 result; protection
// violations surface as *mem.Trap errors (except under NativeUnsafe,
// whose backstop trap stands in for the kernel crash the paper's unsafe-C
// model accepts).
type Graft interface {
	Invoke(entry string, args ...uint32) (uint32, error)
	Memory() *mem.Memory
}

// DirectCaller is an optional fast path: a kernel invoking a compiled
// graft jumps through a resolved function pointer rather than looking the
// entry up per call. Hook points that invoke a graft millions of times
// (the pager's eviction hook, the logical disk's per-block bookkeeping)
// resolve once and call through the returned function; args is reused
// across calls, so implementations must not retain it.
type DirectCaller interface {
	Direct(entry string) (func(args []uint32) (uint32, error), bool)
}

// ResolveDirect returns the fastest call path g offers for entry.
func ResolveDirect(g Graft, entry string) func(args []uint32) (uint32, error) {
	if dc, ok := g.(DirectCaller); ok {
		if fn, ok := dc.Direct(entry); ok {
			return fn
		}
	}
	return func(args []uint32) (uint32, error) {
		return g.Invoke(entry, args...)
	}
}

// Source is a graft program in every representation the technologies
// need. GEL feeds the codegen and bytecode classes; Tcl feeds the script
// class; Compiled, when set, builds the hand-written per-technology Go
// implementation the Compiled* classes run (the paper reimplemented each
// graft per technology, and so does this repo). A Source missing a
// representation cannot be loaded under the class that needs it.
type Source struct {
	Name     string
	GEL      string
	Tcl      string
	Compiled func(cfg mem.Config, m *mem.Memory) (Graft, error)
	// Hipec maps entry-point names to HiPEC-class assembler programs.
	// Grafts the domain language cannot express leave this nil.
	Hipec map[string]string
}

// ID names a technology in the registry.
type ID string

const (
	// The truly compiled class: hand-written Go per graft with the
	// policy's checks compiled in (requires Source.Compiled).
	CompiledUnsafe  ID = "compiled-unsafe"
	CompiledSafe    ID = "compiled-safe"
	CompiledSafeNil ID = "compiled-safe-nil"
	CompiledSFI     ID = "compiled-sfi"
	CompiledSFIFull ID = "compiled-sfi-full"

	// The runtime-codegen class: GEL lowered to closure-threaded Go
	// closures at load time — the paper's "flexible line between
	// generating native code at load time and dynamically generating
	// native code from interpreted code" (§4.3). They run on the AOT
	// translator with proof-based elision off (see internal/aot).
	NativeUnsafe  ID = "native-unsafe"
	NativeSafe    ID = "native-safe"
	NativeSafeNil ID = "native-safe-nil"
	SFI           ID = "sfi"
	SFIFull       ID = "sfi-full"

	// The interpreted classes.
	Bytecode ID = "bytecode"
	Script   ID = "script"

	// The verified ahead-of-time class: the same GEL bytecode the
	// interpreted class runs, but verified once at load time (eBPF-style
	// interval analysis proving memory accesses in-bounds) and lowered
	// to closure-threaded Go with the proven checks elided — the
	// modern "verify, then run native" answer to the paper's
	// interpretation gap (see internal/aot).
	AOT ID = "aot"

	// The domain-specific interpreter class: HiPEC's 20-instruction
	// assembler-like language and the packet-filter languages of §2.
	// Tiny programs, near-compiled throughput, and deliberately unable
	// to express general grafts (requires Source.Hipec; MD5 has none —
	// that inexpressibility is the paper's point).
	Domain ID = "domain"
)

// All lists every directly loadable technology, paper-table order first
// (C, Java, Modula-3, Omniware, Tcl), then the runtime-codegen and
// ablation variants.
var All = []ID{
	CompiledUnsafe, Bytecode, CompiledSafe, CompiledSFI, Script,
	CompiledSafeNil, CompiledSFIFull,
	NativeUnsafe, NativeSafe, NativeSafeNil, SFI, SFIFull,
	Domain, AOT,
}

// Compiled lists the technologies the paper groups as "compiled".
var Compiled = []ID{CompiledUnsafe, CompiledSafe, CompiledSFI}

// NeedsCompiledImpl reports whether id requires Source.Compiled.
func NeedsCompiledImpl(id ID) bool {
	switch id {
	case CompiledUnsafe, CompiledSafe, CompiledSafeNil, CompiledSFI, CompiledSFIFull:
		return true
	}
	return false
}

// PaperName maps a technology to the system it stands in for.
func PaperName(id ID) string {
	switch id {
	case CompiledUnsafe:
		return "C (unsafe, in-kernel)"
	case CompiledSafe:
		return "Modula-3"
	case CompiledSafeNil:
		return "Modula-3 (explicit NIL checks)"
	case CompiledSFI:
		return "Omniware SFI (write/jump)"
	case CompiledSFIFull:
		return "SFI (full read/write/jump)"
	case NativeUnsafe:
		return "runtime codegen (unsafe)"
	case NativeSafe:
		return "runtime codegen (checked)"
	case NativeSafeNil:
		return "runtime codegen (checked+NIL)"
	case SFI:
		return "runtime codegen (SFI w/j)"
	case SFIFull:
		return "runtime codegen (SFI full)"
	case Bytecode:
		return "Java (interpreted bytecode)"
	case Script:
		return "Tcl"
	case Domain:
		return "HiPEC/BPF domain language"
	case AOT:
		return "AOT verified-native (eBPF-style)"
	}
	return string(id)
}

// Config maps a technology to its memory policy.
func Config(id ID) (mem.Config, error) {
	switch id {
	case NativeUnsafe, CompiledUnsafe:
		return mem.Config{Policy: mem.PolicyUnsafe}, nil
	case NativeSafe, CompiledSafe:
		return mem.Config{Policy: mem.PolicyChecked}, nil
	case NativeSafeNil, CompiledSafeNil:
		return mem.Config{Policy: mem.PolicyChecked, NilCheck: true}, nil
	case SFI, CompiledSFI:
		return mem.Config{Policy: mem.PolicySandbox}, nil
	case SFIFull, CompiledSFIFull:
		return mem.Config{Policy: mem.PolicySandbox, ReadProtect: true}, nil
	case Bytecode:
		return mem.Config{Policy: mem.PolicyChecked}, nil
	case Script:
		return mem.Config{Policy: mem.PolicyChecked}, nil
	case Domain:
		return mem.Config{Policy: mem.PolicyChecked}, nil
	case AOT:
		return mem.Config{Policy: mem.PolicyChecked}, nil
	}
	return mem.Config{}, fmt.Errorf("tech: unknown technology %q", id)
}

// VMMode selects the bytecode execution engine.
type VMMode string

const (
	// VMOpt is the default: the load-time optimizing translator
	// (pre-decoded dispatch, superinstruction fusion, block-granular
	// fuel, policy specialization; see internal/vm/opt.go).
	VMOpt VMMode = "opt"
	// VMBaseline selects the naive switch-dispatch reference interpreter.
	VMBaseline VMMode = "baseline"
)

// ParseVMMode validates a -vm flag value ("" means the default).
func ParseVMMode(s string) (VMMode, error) {
	switch VMMode(s) {
	case "", VMOpt:
		return VMOpt, nil
	case VMBaseline:
		return VMBaseline, nil
	}
	return "", fmt.Errorf("tech: unknown vm mode %q (want %q or %q)", s, VMOpt, VMBaseline)
}

// Options tune a load.
type Options struct {
	// Fuel is the per-invocation execution budget: bytecode
	// instructions, charged per basic block, for every class lowered to
	// bytecode (Bytecode, AOT and the five runtime-codegen classes);
	// commands for the script interpreter; instructions for the domain
	// interpreter. 0 disables metering.
	Fuel int64
	// VM selects the bytecode engine ("" = VMOpt). Behaviour is
	// equivalent (differentially tested); only speed differs.
	VM VMMode
	// ScriptParseCache enables the script interpreter's structural parse
	// cache. Off by default: Tcl 3.7's per-eval re-parse is load-bearing
	// for the paper's 10⁴× script-class result, so the cache exists only
	// as an ablation (modeling the Tcl byte-compilers the paper mentions).
	ScriptParseCache bool
}

// Load loads src under the named technology, bound to memory m. While
// telemetry is enabled (telemetry.SetEnabled), the returned graft is
// wrapped with per-invocation metrics under the (src.Name, id) pair;
// the decision is made once at load time so a disabled run pays nothing
// per call. Load also consults the watchdog deny-list — a quarantined
// pair is refused with telemetry.ErrQuarantined — and, while the
// sampling profiler is enabled, hands the engine its profiling scope.
// Lifecycle deployments use the bare Artifact.Load instead.
func Load(id ID, src Source, m *mem.Memory, opts Options) (Graft, error) {
	if telemetry.Enabled() && telemetry.Quarantined(src.Name, string(id)) {
		return nil, fmt.Errorf("tech %s: graft %q: %w", id, src.Name, telemetry.ErrQuarantined)
	}
	g, err := Artifact{Source: src}.Load(id, m, opts)
	if err != nil || telemetry.Disabled() {
		return g, err
	}
	return instrument(g, src.Name, id, opts.Fuel > 0), nil
}

// ProfileSetter is the optional engine interface the sampling profiler
// wires through: both bytecode engines, the closure translator (AOT and
// the runtime-codegen classes) and the script interpreter implement it —
// the classes with a fuel charge to piggyback on. The compiled classes
// run native Go and are profiled by the host profiler instead.
type ProfileSetter interface {
	SetProfile(s *telemetry.ProfScope, every int64)
}

// attachProfile hands g its profiler scope when a profile is installed
// and the engine supports one. Like the metrics wrap, the decision is
// load-time only.
func attachProfile(g Graft, graft string, id ID) {
	p := telemetry.CurrentProfile()
	if p == nil {
		return
	}
	if ps, ok := g.(ProfileSetter); ok {
		ps.SetProfile(p.Scope(graft, string(id)), p.Interval())
	}
}

// SpanInvoker is the optional interface wrappers implement to thread a
// causal span context through an invocation (the instrumented metrics
// wrapper and upcall.Domain do; raw engines do not need to — the engine
// span is recorded by the wrapper around them).
type SpanInvoker interface {
	InvokeSpan(ctx telemetry.SpanCtx, entry string, args ...uint32) (uint32, error)
}

// InvokeSpan invokes entry on g, threading ctx when g supports it and
// falling back to a plain Invoke when it does not (or when ctx is
// inactive, in which case the span-aware path would be a no-op anyway).
func InvokeSpan(g Graft, ctx telemetry.SpanCtx, entry string, args ...uint32) (uint32, error) {
	if ctx.Active() {
		if si, ok := g.(SpanInvoker); ok {
			return si.InvokeSpan(ctx, entry, args...)
		}
	}
	return g.Invoke(entry, args...)
}

// load is the uninstrumented loader behind Load.
func load(id ID, src Source, m *mem.Memory, opts Options) (Graft, error) {
	cfg, err := Config(id)
	if err != nil {
		return nil, err
	}
	switch id {
	case CompiledUnsafe, CompiledSafe, CompiledSafeNil, CompiledSFI, CompiledSFIFull:
		if src.Compiled == nil {
			return nil, fmt.Errorf("tech %s: graft %q has no compiled implementation", id, src.Name)
		}
		return src.Compiled(cfg, m)
	case NativeUnsafe, NativeSafe, NativeSafeNil, SFI, SFIFull, Bytecode, AOT:
		mod, err := compileGEL(id, src.GEL)
		if err != nil {
			return nil, err
		}
		return newModuleEngine(id, mod, m, cfg, opts)
	case Script:
		if src.Tcl == "" {
			return nil, fmt.Errorf("tech %s: graft %q has no script translation", id, src.Name)
		}
		in := script.New(m, cfg)
		in.Fuel = opts.Fuel
		in.CacheParse = opts.ScriptParseCache
		if err := in.Load(src.Tcl); err != nil {
			return nil, fmt.Errorf("tech %s: %w", id, err)
		}
		return in, nil
	case Domain:
		if len(src.Hipec) == 0 {
			return nil, fmt.Errorf("tech %s: graft %q is not expressible in the domain language", id, src.Name)
		}
		g := &hipecGraft{m: m, fuel: opts.Fuel, progs: make(map[string]*hipec.Program, len(src.Hipec))}
		for entry, asm := range src.Hipec {
			p, err := hipec.Assemble(asm)
			if err != nil {
				return nil, fmt.Errorf("tech %s: entry %q: %w", id, entry, err)
			}
			g.progs[entry] = p
		}
		return g, nil
	}
	return nil, fmt.Errorf("tech: unknown technology %q", id)
}

// compileGEL is the front end every bytecode-lowered class shares:
// parse, check, compile to a verified module. The module is immutable,
// so Pool builds it once for all instances.
func compileGEL(id ID, src string) (*bytecode.Module, error) {
	prog, err := gel.ParseAndCheck(src)
	if err != nil {
		return nil, fmt.Errorf("tech %s: %w", id, err)
	}
	mod, err := compile.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("tech %s: %w", id, err)
	}
	return mod, nil
}

// newModuleEngine binds an engine for id to m over a compiled module:
// the selected bytecode VM, or the closure translator — with the
// verifier's proofs eliding checks for AOT, without them for the
// runtime-codegen classes. Shared by load and Pool.newInstance.
func newModuleEngine(id ID, mod *bytecode.Module, m *mem.Memory, cfg mem.Config, opts Options) (Graft, error) {
	if id == Bytecode {
		return newVMEngine(mod, m, cfg, opts)
	}
	build := aot.NewNoElision
	if id == AOT {
		build = aot.New
	}
	p, err := build(mod, m, cfg)
	if err != nil {
		return nil, fmt.Errorf("tech %s: %w", id, err)
	}
	p.Fuel = opts.Fuel
	return p, nil
}

// newVMEngine instantiates the selected bytecode engine over a compiled
// module.
func newVMEngine(mod *bytecode.Module, m *mem.Memory, cfg mem.Config, opts Options) (Graft, error) {
	mode, err := ParseVMMode(string(opts.VM))
	if err != nil {
		return nil, err
	}
	if mode == VMBaseline {
		v, err := vm.New(mod, m, cfg)
		if err != nil {
			return nil, fmt.Errorf("tech %s: %w", Bytecode, err)
		}
		v.Fuel = opts.Fuel
		return v, nil
	}
	v, err := vm.NewOpt(mod, m, cfg, vm.OptConfig{})
	if err != nil {
		return nil, fmt.Errorf("tech %s: %w", Bytecode, err)
	}
	v.Fuel = opts.Fuel
	return v, nil
}

// hipecGraft adapts verified HiPEC-class programs to the Graft interface.
type hipecGraft struct {
	m     *mem.Memory
	progs map[string]*hipec.Program
	fuel  int64
}

// Invoke implements Graft.
func (g *hipecGraft) Invoke(entry string, args ...uint32) (uint32, error) {
	p, ok := g.progs[entry]
	if !ok {
		return 0, fmt.Errorf("domain: no entry %q", entry)
	}
	return p.Run(g.m, g.fuel, args...)
}

// Memory implements Graft.
func (g *hipecGraft) Memory() *mem.Memory { return g.m }

// Direct implements DirectCaller.
func (g *hipecGraft) Direct(entry string) (func(args []uint32) (uint32, error), bool) {
	p, ok := g.progs[entry]
	if !ok {
		return nil, false
	}
	m, fuel := g.m, g.fuel
	return func(args []uint32) (uint32, error) {
		return p.Run(m, fuel, args...)
	}, true
}

// MustLoad loads a known-good compiled-in graft, panicking on error.
func MustLoad(id ID, src Source, m *mem.Memory, opts Options) Graft {
	g, err := Load(id, src, m, opts)
	if err != nil {
		panic(err)
	}
	return g
}
