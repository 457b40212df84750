package vm

// Differential tests: the baseline interpreter (vm.go) is the semantic
// reference; OptVM (opt.go) must agree with it on random GEL programs under
// every memory policy, including trap kind/pc/addr equivalence, memory side
// effects, and fuel-exhaustion behavior. The single permitted divergence is
// block-granular fuel: when the baseline traps mid-block (or mid-fused-
// group), the optimized engine may report fuel exhaustion up to one block
// early instead. The completion threshold itself is identical — a program
// that finishes under the baseline with budget F finishes under OptVM with
// budget F, and vice versa.

import (
	"fmt"
	"math/rand"
	"testing"

	"graftlab/internal/bytecode"
	"graftlab/internal/compile"
	"graftlab/internal/gel"
	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

const diffMemSize = 1 << 16

var diffPolicies = []struct {
	name string
	cfg  mem.Config
}{
	{"unsafe", mem.Config{Policy: mem.PolicyUnsafe}},
	{"checked", mem.Config{Policy: mem.PolicyChecked}},
	{"checked-nil", mem.Config{Policy: mem.PolicyChecked, NilCheck: true}},
	{"sandbox", mem.Config{Policy: mem.PolicySandbox}},
	{"sandbox-rp", mem.Config{Policy: mem.PolicySandbox, ReadProtect: true}},
}

func compileGEL(t testing.TB, src string) *bytecode.Module {
	t.Helper()
	prog, err := gel.ParseAndCheck(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	mod, err := compile.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return mod
}

type engine interface {
	Invoke(entry string, args ...uint32) (uint32, error)
	Resolve(entry string) (handle, bool)
	Memory() *mem.Memory
}

func newBase(t testing.TB, mod *bytecode.Module, cfg mem.Config, init []byte, fuel int64) *VM {
	t.Helper()
	m := mem.New(diffMemSize)
	copy(m.Data, init)
	v, err := New(mod, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v.Fuel = fuel
	return v
}

func newOptVM(t testing.TB, mod *bytecode.Module, cfg mem.Config, init []byte, fuel int64, oc OptConfig) *OptVM {
	t.Helper()
	m := mem.New(diffMemSize)
	copy(m.Data, init)
	v, err := NewOpt(mod, m, cfg, oc)
	if err != nil {
		t.Fatal(err)
	}
	v.Fuel = fuel
	return v
}

func runMain(t testing.TB, g engine, args []uint32) (uint32, *mem.Trap) {
	t.Helper()
	v, err := g.Invoke("main", args...)
	if err == nil {
		return v, nil
	}
	tr, ok := err.(*mem.Trap)
	if !ok {
		t.Fatalf("non-trap error: %v", err)
	}
	return 0, tr
}

// checkAgainstBaseline applies the equivalence predicate described in the
// file comment.
func checkAgainstBaseline(t *testing.T, label, src string,
	bv uint32, bt *mem.Trap, bmem []byte,
	ov uint32, ot *mem.Trap, omem []byte) {
	t.Helper()
	fail := func(format string, a ...any) {
		t.Helper()
		t.Fatalf("%s: %s\nbaseline trap=%v opt trap=%v\n%s", label, fmt.Sprintf(format, a...), bt, ot, src)
	}
	switch {
	case bt == nil && ot == nil:
		if bv != ov {
			fail("value: baseline=%d opt=%d", bv, ov)
		}
		if string(bmem) != string(omem) {
			fail("memory diverges on completed run")
		}
	case bt == nil:
		fail("opt trapped where baseline completed (value %d)", bv)
	case ot == nil:
		fail("opt completed (value %d) where baseline trapped", ov)
	case bt.Kind == mem.TrapFuel:
		// Both must run out; pc and partial side effects may differ by up
		// to one block.
		if ot.Kind != mem.TrapFuel {
			fail("baseline exhausted fuel, opt raised %v", ot.Kind)
		}
	case ot.Kind == mem.TrapFuel:
		// Bounded overshoot: baseline trapped mid-block, opt charged the
		// whole block on entry and ran out first. Allowed.
	default:
		if bt.Kind != ot.Kind || bt.PC != ot.PC || bt.Addr != ot.Addr || bt.Code != ot.Code {
			fail("trap mismatch")
		}
		if string(bmem) != string(omem) {
			fail("memory diverges on identically-trapped run")
		}
	}
}

// TestBaselineOptAgreeOnRandomPrograms is the main differential property:
// random GEL programs (wild addresses, division, calls, nested control
// flow) under all memory policies, with both ample and scarce fuel, for the
// full translator and both ablated configurations.
func TestBaselineOptAgreeOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 400
	if testing.Short() {
		n = 60
	}
	variants := []struct {
		name string
		oc   OptConfig
	}{
		{"opt", OptConfig{}},
		{"opt-nofuse", OptConfig{NoFuse: true}},
		{"opt-perinstr", OptConfig{PerInstrFuel: true}},
	}
	for i := 0; i < n; i++ {
		src := randomDiffProgram(rng)
		mod := compileGEL(t, src)
		args := []uint32{rng.Uint32(), rng.Uint32() % 97}
		fuel := int64(1 << 16)
		if i%3 == 1 {
			fuel = int64(rng.Intn(300)) + 1
		}
		init := make([]byte, diffMemSize)
		rng.Read(init)
		for _, pol := range diffPolicies {
			base := newBase(t, mod, pol.cfg, init, fuel)
			bv, bt := runMain(t, base, args)
			for _, vr := range variants {
				opt := newOptVM(t, mod, pol.cfg, init, fuel, vr.oc)
				ov, ot := runMain(t, opt, args)
				label := fmt.Sprintf("program %d policy %s variant %s fuel %d args %v",
					i, pol.name, vr.name, fuel, args)
				checkAgainstBaseline(t, label, src,
					bv, bt, base.Memory().Data, ov, ot, opt.Memory().Data)
			}
		}
	}
}

// randomDiffProgram generates GEL with deliberately wild memory addresses
// (to exercise OOB and nil-page traps), possible division by zero, a helper
// call, and bounded loops. Unlike the cross-technology generator in
// internal/tech, it does not need policies to agree with each other — only
// the two engines under the *same* policy.
func randomDiffProgram(rng *rand.Rand) string {
	hg := &diffGen{rng: rng, vars: []string{"p", "q"}, leaf: true}
	g := &diffGen{rng: rng, vars: []string{"x", "y", "z", "a", "b"}}
	return fmt.Sprintf(`func h(p, q) {
	return %s;
}
func main(a, b) {
	var x = a;
	var y = b;
	var z = 3;
%s	return x ^ y + z;
}`, hg.expr(2), g.stmts(4, 2))
}

type diffGen struct {
	rng  *rand.Rand
	vars []string
	leaf bool // no calls to h (used when generating h's own body)
}

func (g *diffGen) stmts(n, depth int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += g.stmt(depth)
	}
	return out
}

func (g *diffGen) addr() string {
	if g.rng.Intn(3) == 0 {
		return g.expr(1) // wild: may be out of bounds or in the nil page
	}
	return fmt.Sprintf("((%s) %% 16000) * 4", g.expr(1))
}

func (g *diffGen) stmt(depth int) string {
	vars := []string{"x", "y", "z"}
	v := vars[g.rng.Intn(len(vars))]
	switch r := g.rng.Intn(12); {
	case r < 4:
		return fmt.Sprintf("\t%s = %s;\n", v, g.expr(depth))
	case r < 6 && depth > 0:
		return fmt.Sprintf("\tif (%s) {\n%s\t} else {\n%s\t}\n",
			g.expr(depth-1), g.stmts(2, depth-1), g.stmts(1, depth-1))
	case r < 7 && depth > 0:
		return fmt.Sprintf("\t{ var i = 0; while (i < %d) { i = i + 1;\n%s\t} }\n",
			g.rng.Intn(9)+1, g.stmts(1, depth-1))
	case r < 9:
		return fmt.Sprintf("\tst32(%s, %s);\n", g.addr(), g.expr(depth))
	case r < 10:
		return fmt.Sprintf("\tst8(%s, %s);\n", g.addr(), g.expr(depth))
	case r < 11:
		return fmt.Sprintf("\t%s = ld8(%s);\n", v, g.addr())
	default:
		return fmt.Sprintf("\t%s = ld32(%s);\n", v, g.addr())
	}
}

func (g *diffGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(3) == 0 {
			return fmt.Sprintf("%d", g.rng.Uint32()>>uint(g.rng.Intn(32)))
		}
		return g.vars[g.rng.Intn(len(g.vars))]
	}
	switch g.rng.Intn(8) {
	case 0: // helper call
		if g.leaf {
			return fmt.Sprintf("(%s + %s)", g.expr(depth-1), g.expr(depth-1))
		}
		return fmt.Sprintf("h(%s, %s)", g.expr(depth-1), g.expr(depth-1))
	case 1:
		return fmt.Sprintf("rotl(%s, %s)", g.expr(depth-1), g.expr(depth-1))
	case 2:
		return fmt.Sprintf("(~%s)", g.expr(depth-1))
	default:
		ops := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
			"<", "<=", ">", ">=", "==", "!="}
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), ops[g.rng.Intn(len(ops))], g.expr(depth-1))
	}
}

// TestFuelThresholdIdentical pins the central fuel property: the minimal
// budget under which a program completes is the same for the baseline and
// every translator configuration — block-granular charging changes when a
// runaway graft is stopped by at most one block, never whether a
// well-budgeted one completes.
func TestFuelThresholdIdentical(t *testing.T) {
	src := `func main(a, b) {
	var i = 0;
	var s = 0;
	while (i < 50) {
		s = s + ld32(((s + i) % 15360 + 1024) * 4);
		i = i + 1;
	}
	return s;
}`
	mod := compileGEL(t, src)
	cfg := mem.Config{Policy: mem.PolicyChecked, NilCheck: true}
	init := make([]byte, diffMemSize)
	rand.New(rand.NewSource(7)).Read(init)
	args := []uint32{5, 9}

	completes := func(fuel int64) bool {
		v := newBase(t, mod, cfg, init, fuel)
		_, tr := runMain(t, v, args)
		if tr != nil && tr.Kind != mem.TrapFuel {
			t.Fatalf("unexpected trap %v", tr)
		}
		return tr == nil
	}
	lo, hi := int64(1), int64(1<<20)
	if !completes(hi) {
		t.Fatal("program does not complete even with ample fuel")
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if completes(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	minFuel := lo
	t.Logf("baseline minimal fuel: %d", minFuel)

	for _, vr := range []struct {
		name string
		oc   OptConfig
	}{
		{"opt", OptConfig{}},
		{"opt-nofuse", OptConfig{NoFuse: true}},
		{"opt-perinstr", OptConfig{PerInstrFuel: true}},
	} {
		ok := newOptVM(t, mod, cfg, init, minFuel, vr.oc)
		if _, tr := runMain(t, ok, args); tr != nil {
			t.Errorf("%s: trapped at baseline threshold %d: %v", vr.name, minFuel, tr)
		}
		starved := newOptVM(t, mod, cfg, init, minFuel-1, vr.oc)
		if _, tr := runMain(t, starved, args); tr == nil || tr.Kind != mem.TrapFuel {
			t.Errorf("%s: expected fuel trap at %d, got %v", vr.name, minFuel-1, tr)
		}
	}
}

// TestFuelOvershootBoundedByBlock demonstrates and bounds the one permitted
// divergence: a straight-line function that divides by zero mid-block.
// With ample fuel both engines raise the same div-zero trap at the same pc;
// with fuel that reaches the division but not the end of the block, the
// baseline raises div-zero while OptVM reports fuel exhaustion at the block
// boundary — never a wrong result, never a missed preemption.
func TestFuelOvershootBoundedByBlock(t *testing.T) {
	src := `func main(a, b) {
	var x = a + b + 1;
	x = x * 3;
	x = x / b;
	x = x + 7;
	return x;
}`
	mod := compileGEL(t, src)
	code := mod.Funcs[mod.ByName["main"]].Code
	divPC := -1
	for pc, in := range code {
		if in.Op == bytecode.OpDivU {
			divPC = pc
		}
	}
	if divPC < 0 || divPC+2 >= len(code) {
		t.Fatalf("test expects a mid-block division, got divPC=%d len=%d", divPC, len(code))
	}
	cfg := mem.Config{Policy: mem.PolicyChecked}
	args := []uint32{10, 0} // b == 0 -> division by zero

	// Ample fuel: identical trap, identical pc.
	base := newBase(t, mod, cfg, nil, 1<<16)
	_, bt := runMain(t, base, args)
	opt := newOptVM(t, mod, cfg, nil, 1<<16, OptConfig{})
	_, ot := runMain(t, opt, args)
	if bt == nil || ot == nil || bt.Kind != mem.TrapDivZero || ot.Kind != mem.TrapDivZero || bt.PC != ot.PC {
		t.Fatalf("ample fuel: baseline=%v opt=%v", bt, ot)
	}

	// Fuel reaches the division exactly: baseline charges divPC+1
	// instructions and traps div-zero; OptVM charges the whole block on
	// entry and must preempt with a fuel trap instead.
	tight := int64(divPC + 1)
	base = newBase(t, mod, cfg, nil, tight)
	_, bt = runMain(t, base, args)
	if bt == nil || bt.Kind != mem.TrapDivZero {
		t.Fatalf("tight fuel baseline: %v", bt)
	}
	opt = newOptVM(t, mod, cfg, nil, tight, OptConfig{})
	_, ot = runMain(t, opt, args)
	if ot == nil || ot.Kind != mem.TrapFuel {
		t.Fatalf("tight fuel opt: want fuel trap (bounded overshoot), got %v", ot)
	}
}

// TestStackOverflowAgrees: unbounded recursion preempts identically.
func TestStackOverflowAgrees(t *testing.T) {
	src := `func r(n) {
	if (n == 0) { return 0; }
	return r(n - 1) + 1;
}
func main(a, b) { return r(a); }`
	mod := compileGEL(t, src)
	cfg := mem.Config{Policy: mem.PolicyChecked}
	base := newBase(t, mod, cfg, nil, 0)
	opt := newOptVM(t, mod, cfg, nil, 0, OptConfig{})
	for _, g := range []engine{base, opt} {
		if _, tr := runMain(t, g, []uint32{1 << 20, 0}); tr == nil || tr.Kind != mem.TrapStackOverflow {
			t.Fatalf("want stack-overflow trap, got %v", tr)
		}
		if v, tr := runMain(t, g, []uint32{100, 0}); tr != nil || v != 100 {
			t.Fatalf("bounded recursion: v=%d trap=%v", v, tr)
		}
	}
}

// TestDirectFuelConsistency is the regression test for the resolved
// handle's stale-fuel hazard: the budget must be sampled when the handle
// is called, not when it is resolved, for both engines.
func TestDirectFuelConsistency(t *testing.T) {
	src := `func main(a, b) {
	var i = 0;
	while (i < 10000) { i = i + 1; }
	return i;
}`
	mod := compileGEL(t, src)
	cfg := mem.Config{Policy: mem.PolicyChecked}
	base := newBase(t, mod, cfg, nil, 0)
	opt := newOptVM(t, mod, cfg, nil, 0, OptConfig{})
	for _, tc := range []struct {
		name string
		g    engine
		set  func(int64)
	}{
		{"baseline", base, func(f int64) { base.Fuel = f }},
		{"opt", opt, func(f int64) { opt.Fuel = f }},
	} {
		fn, ok := tc.g.Resolve("main")
		if !ok {
			t.Fatalf("%s: Resolve failed", tc.name)
		}
		args := []uint32{0, 0}
		// Resolved while unmetered: runs to completion.
		if v, _, err := fn(telemetry.SpanCtx{}, args); err != nil || v != 10000 {
			t.Fatalf("%s unmetered: v=%d err=%v", tc.name, v, err)
		}
		// Fuel set after resolution must take effect on the next call.
		tc.set(100)
		if _, _, err := fn(telemetry.SpanCtx{}, args); err == nil {
			t.Fatalf("%s: starved handle completed; Fuel was sampled at resolve time", tc.name)
		} else if tr, k := err.(*mem.Trap), true; !k || tr.Kind != mem.TrapFuel {
			t.Fatalf("%s: want fuel trap, got %v", tc.name, err)
		}
		// And clearing it must unmeter again.
		tc.set(0)
		if v, _, err := fn(telemetry.SpanCtx{}, args); err != nil || v != 10000 {
			t.Fatalf("%s re-unmetered: v=%d err=%v", tc.name, v, err)
		}
	}
}

// TestOptSandboxContainment mirrors the baseline sandbox property for the
// translated engine, covering the fused store opcodes.
func TestOptSandboxContainment(t *testing.T) {
	src := `func main(a, v) { st32(a, v); st8(a + 7, v); return 0; }`
	mod := compileGEL(t, src)
	m := mem.New(1 << 10)
	v, err := NewOpt(mod, m, mem.Config{Policy: mem.PolicySandbox}, OptConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a, val := rng.Uint32(), rng.Uint32()
		if _, err := v.Invoke("main", a, val); err != nil {
			t.Fatalf("sandboxed store trapped: addr=%#x: %v", a, err)
		}
		if got := m.Ld32U(m.SandboxWord(a)); got != val {
			t.Fatalf("store to %#x did not land at masked address", a)
		}
	}
}

// TestTranslatorFusesHotPatterns pins that the fusion pass actually fires
// on the codegen shapes it targets (indexed loads, compare+branch loop
// heads), so a codegen drift that silently defeats fusion fails loudly.
func TestTranslatorFusesHotPatterns(t *testing.T) {
	src := `func main(a, b) {
	var i = 0;
	var s = 0;
	while (i < 8) {
		s = s + ld32(0x1000 + i * 4);
		i = i + 1;
	}
	return s;
}`
	mod := compileGEL(t, src)
	v, err := NewOpt(mod, mem.New(1<<16), mem.Config{Policy: mem.PolicyChecked}, OptConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fn := v.fns[mod.ByName["main"]]
	seen := map[xop]bool{}
	retired := 0
	for _, in := range fn.code {
		seen[in.op] = true
		retired += int(in.n)
	}
	orig := len(mod.Funcs[mod.ByName["main"]].Code)
	if retired != orig {
		t.Fatalf("translated code retires %d originals, function has %d", retired, orig)
	}
	if !seen[xLdCI32U] {
		t.Errorf("indexed constant-base load was not fused; opcodes: %v", seen)
	}
	if !seen[xLCCmpJz] {
		t.Errorf("local/const compare+branch was not fused; opcodes: %v", seen)
	}
	if len(fn.code) >= orig {
		t.Errorf("fusion did not shrink code: %d xinstrs for %d instructions", len(fn.code), orig)
	}
}

// TestOptInvokeNoAllocSteadyState: the frame arena makes hot-path
// invocations allocation-free after warm-up.
func TestOptInvokeNoAllocSteadyState(t *testing.T) {
	src := `func h(p, q) { return p * q + 1; }
func main(a, b) {
	var s = 0;
	var i = 0;
	while (i < 4) { s = s + h(a, i); i = i + 1; }
	return s;
}`
	mod := compileGEL(t, src)
	v, err := NewOpt(mod, mem.New(1<<12), mem.Config{Policy: mem.PolicyChecked}, OptConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := v.Resolve("main")
	if !ok {
		t.Fatal("Resolve failed")
	}
	args := []uint32{3, 0}
	if _, _, err := fn(telemetry.SpanCtx{}, args); err != nil { // warm the arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := fn(telemetry.SpanCtx{}, args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Invoke allocates %.1f objects per call, want 0", allocs)
	}
}
