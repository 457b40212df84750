package aot

// Differential tests: vm.OptVM is the semantic reference (itself pinned
// against the baseline interpreter in internal/vm). Both translations —
// with proof-based elision (the AOT class) and without (the
// runtime-codegen classes) — must agree with it under every memory
// policy on results, trap identity (kind, pc, addr, code), memory side
// effects, fault-plan access ordering, and fuel accounting. Because both
// engines charge fuel per basic block from the same Leaders/BlockCosts
// CFG, agreement is exact — including FuelUsed and the completion
// threshold — with one cosmetic exception: on a fuel trap the optimizing
// VM reports the pc of its first fused group's trap slot while this
// engine reports the block leader; both pcs lie in the same block.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"graftlab/internal/bytecode"
	"graftlab/internal/compile"
	"graftlab/internal/gel"
	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
	"graftlab/internal/vm"
)

const testMemSize = 1 << 16

// aotPolicies are the memory policies the translator supports: one per
// technology class it carries.
var aotPolicies = []struct {
	name string
	cfg  mem.Config
}{
	{"unsafe", mem.Config{Policy: mem.PolicyUnsafe}},
	{"checked", mem.Config{Policy: mem.PolicyChecked}},
	{"checked-nil", mem.Config{Policy: mem.PolicyChecked, NilCheck: true}},
	{"sandbox", mem.Config{Policy: mem.PolicySandbox}},
	{"sandbox-rp", mem.Config{Policy: mem.PolicySandbox, ReadProtect: true}},
}

// translations are the backend's two lowerings of one module: with the
// interval analysis's proofs eliding checks (the AOT class) and without
// (the runtime-codegen classes).
var translations = []struct {
	name  string
	build func(*bytecode.Module, *mem.Memory, mem.Config) (*Prog, error)
}{
	{"elide", New},
	{"no-elide", NewNoElision},
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

func newProg(t testing.TB, mod *bytecode.Module, cfg mem.Config, init []byte, fuel int64) *Prog {
	t.Helper()
	return buildProg(t, New, mod, cfg, init, fuel)
}

func buildProg(t testing.TB, build func(*bytecode.Module, *mem.Memory, mem.Config) (*Prog, error),
	mod *bytecode.Module, cfg mem.Config, init []byte, fuel int64) *Prog {
	t.Helper()
	m := mem.New(testMemSize)
	copy(m.Data, init)
	p, err := build(mod, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Fuel = fuel
	return p
}

func newRef(t testing.TB, mod *bytecode.Module, cfg mem.Config, init []byte, fuel int64) *vm.OptVM {
	t.Helper()
	m := mem.New(testMemSize)
	copy(m.Data, init)
	v, err := vm.NewOpt(mod, m, cfg, vm.OptConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v.Fuel = fuel
	return v
}

type engine interface {
	Invoke(entry string, args ...uint32) (uint32, error)
	Memory() *mem.Memory
	FuelUsed() int64
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

// checkSameAsRef asserts exact agreement between the AOT run and the
// reference run: value or full trap identity, memory bytes (both engines
// charge fuel at block entry, so even fuel traps leave identical
// memories), and FuelUsed.
func checkSameAsRef(t *testing.T, label, src string,
	rv uint32, rt *mem.Trap, rmem []byte, rfuel int64,
	av uint32, at *mem.Trap, amem []byte, afuel int64) {
	t.Helper()
	fail := func(format string, a ...any) {
		t.Helper()
		t.Fatalf("%s: %s\nref trap=%v aot trap=%v\n%s", label, fmt.Sprintf(format, a...), rt, at, src)
	}
	switch {
	case rt == nil && at == nil:
		if rv != av {
			fail("value: ref=%d aot=%d", rv, av)
		}
	case rt == nil:
		fail("aot trapped where ref completed (value %d)", rv)
	case at == nil:
		fail("aot completed (value %d) where ref trapped", av)
	case rt.Kind == mem.TrapFuel || at.Kind == mem.TrapFuel:
		// Identical block-granular budgets: both must exhaust together.
		// The pcs differ cosmetically (fused-group trap slot vs block
		// leader) but identify the same block, so only kinds compare.
		if rt.Kind != at.Kind {
			fail("fuel divergence")
		}
	default:
		if rt.Kind != at.Kind || rt.PC != at.PC || rt.Addr != at.Addr || rt.Code != at.Code {
			fail("trap mismatch")
		}
	}
	if string(rmem) != string(amem) {
		fail("memory diverges")
	}
	if rfuel != afuel {
		fail("FuelUsed: ref=%d aot=%d", rfuel, afuel)
	}
}

// TestAOTAgreesWithOptVMOnRandomPrograms is the main differential
// property: random GEL programs with wild addresses, division, helper
// calls, and nested control flow, under every supported policy and both
// translations, with both ample and scarce fuel.
func TestAOTAgreesWithOptVMOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1931))
	n := 400
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		src := randomAOTProgram(rng)
		mod := compileGEL(t, src)
		args := []uint32{rng.Uint32(), rng.Uint32() % 97}
		fuel := int64(1 << 16)
		if i%3 == 1 {
			fuel = int64(rng.Intn(300)) + 1
		}
		init := make([]byte, testMemSize)
		rng.Read(init)
		for _, pol := range aotPolicies {
			ref := newRef(t, mod, pol.cfg, init, fuel)
			rv, rt := runMain(t, ref, args)
			for _, tl := range translations {
				p := buildProg(t, tl.build, mod, pol.cfg, init, fuel)
				av, at := runMain(t, p, args)
				label := fmt.Sprintf("program %d policy %s %s fuel %d args %v", i, pol.name, tl.name, fuel, args)
				checkSameAsRef(t, label, src,
					rv, rt, ref.Memory().Data, ref.FuelUsed(),
					av, at, p.Memory().Data, p.FuelUsed())
			}
		}
	}
}

// randomAOTProgram generates GEL exercising both sides of the verifier:
// provable accesses (modulo-bounded addresses the interval analysis can
// discharge) and wild ones (forced fallback), plus the full operator set.
func randomAOTProgram(rng *rand.Rand) string {
	hg := &progGen{rng: rng, vars: []string{"p", "q"}, leaf: true}
	g := &progGen{rng: rng, vars: []string{"x", "y", "z", "a", "b"}}
	return fmt.Sprintf(`func h(p, q) {
	return %s;
}
func main(a, b) {
	var x = a;
	var y = b;
	var z = 5;
%s	return x ^ y - z;
}`, hg.expr(2), g.stmts(4, 2))
}

type progGen struct {
	rng  *rand.Rand
	vars []string
	leaf bool
}

func (g *progGen) stmts(n, depth int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(g.stmt(depth))
	}
	return sb.String()
}

func (g *progGen) addr() string {
	switch g.rng.Intn(4) {
	case 0:
		return g.expr(1) // wild: may be OOB or in the nil page
	case 1:
		// provable shape: bounded index, constant scale and base
		return fmt.Sprintf("((%s) %% 1000) * 4 + 8192", g.expr(1))
	default:
		return fmt.Sprintf("((%s) %% 16000) * 4", g.expr(1))
	}
}

func (g *progGen) stmt(depth int) string {
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

func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(3) == 0 {
			return fmt.Sprintf("%d", g.rng.Uint32()>>uint(g.rng.Intn(32)))
		}
		return g.vars[g.rng.Intn(len(g.vars))]
	}
	switch g.rng.Intn(8) {
	case 0:
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
// budget under which a program completes is the same for the reference
// engine and the AOT translation — bounds-check elision must never
// change what gets metered.
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
	init := make([]byte, testMemSize)
	rand.New(rand.NewSource(7)).Read(init)
	args := []uint32{5, 9}

	completes := func(fuel int64) bool {
		v := newRef(t, mod, cfg, init, fuel)
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
	t.Logf("reference minimal fuel: %d", minFuel)

	ok := newProg(t, mod, cfg, init, minFuel)
	if _, tr := runMain(t, ok, args); tr != nil {
		t.Errorf("aot trapped at reference threshold %d: %v", minFuel, tr)
	}
	if used := ok.FuelUsed(); used != minFuel {
		t.Errorf("FuelUsed at exact threshold: got %d, want %d", used, minFuel)
	}
	starved := newProg(t, mod, cfg, init, minFuel-1)
	if _, tr := runMain(t, starved, args); tr == nil || tr.Kind != mem.TrapFuel {
		t.Errorf("expected fuel trap at %d, got %v", minFuel-1, tr)
	}
}

// TestFuelCliffAtBlockBoundary pins the block-granular charging shape: a
// straight-line function that traps mid-block must, under fuel that
// reaches the trap but not the block end, report fuel exhaustion at the
// block boundary — the same bounded-overshoot contract the optimizing VM
// gives, at the same budget.
func TestFuelCliffAtBlockBoundary(t *testing.T) {
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

	// Ample fuel: same div-zero trap at the same pc as the reference.
	ref := newRef(t, mod, cfg, nil, 1<<16)
	_, rt := runMain(t, ref, args)
	p := newProg(t, mod, cfg, nil, 1<<16)
	_, at := runMain(t, p, args)
	if rt == nil || at == nil || at.Kind != mem.TrapDivZero || rt.PC != at.PC {
		t.Fatalf("ample fuel: ref=%v aot=%v", rt, at)
	}

	// Fuel reaches the division exactly: the whole block was charged at
	// entry, so the engine must preempt with a fuel trap instead.
	tight := int64(divPC + 1)
	p = newProg(t, mod, cfg, nil, tight)
	_, at = runMain(t, p, args)
	if at == nil || at.Kind != mem.TrapFuel {
		t.Fatalf("tight fuel: want fuel trap (bounded overshoot), got %v", at)
	}
	if int(at.PC) >= len(code) {
		t.Fatalf("fuel trap pc %d outside function", at.PC)
	}
}

// TestVerifyStatsElision pins the proof coverage on the two canonical
// shapes: a modulo-bounded loop index (provable) and a raw argument
// address (not provable). The elision must also respect the policy: the
// same provable range stops being provable under NilCheck when it
// intersects the nil page.
func TestVerifyStatsElision(t *testing.T) {
	provable := compileGEL(t, `func main(a, b) {
	var i = 0;
	var s = 0;
	while (i < 1000) {
		s = s + ld32((i % 1000) * 4);
		st32(((i % 500) * 4) + 4096, s);
		i = i + 1;
	}
	return s;
}`)
	p := newProg(t, provable, mem.Config{Policy: mem.PolicyChecked}, nil, 0)
	st := p.VerifyStats()
	if st.Loads != 1 || st.Stores != 1 {
		t.Fatalf("site counts: %+v", st)
	}
	if st.ProvenLoads != 1 || st.ProvenStores != 1 {
		t.Errorf("checked policy: provable accesses not elided: %+v", st)
	}

	// Policy-denied region: the load's range [0, 3999] intersects the nil
	// page, so NilCheck must keep its runtime check; the store's range
	// [4096, 6092] clears the page and stays elided.
	p = newProg(t, provable, mem.Config{Policy: mem.PolicyChecked, NilCheck: true}, nil, 0)
	st = p.VerifyStats()
	if st.ProvenLoads != 0 {
		t.Errorf("nil-check policy: load in nil page must not be elided: %+v", st)
	}
	if st.ProvenStores != 1 {
		t.Errorf("nil-check policy: store above nil page should stay elided: %+v", st)
	}
	// And the denied region actually traps at run time.
	if _, tr := runMain(t, p, []uint32{0, 0}); tr == nil || tr.Kind != mem.TrapNilDeref {
		t.Errorf("nil-page access: want TrapNilDeref, got %v", tr)
	}

	// Unprovable index: a raw argument address defeats the analysis; the
	// program must fall back to checked closures, not be rejected.
	wild := compileGEL(t, `func main(a, b) { return ld32(a) + ld8(b); }`)
	p = newProg(t, wild, mem.Config{Policy: mem.PolicyChecked}, nil, 0)
	st = p.VerifyStats()
	if st.Loads != 2 || st.ProvenLoads != 0 {
		t.Errorf("wild addresses must not be proven: %+v", st)
	}
	if v, tr := runMain(t, p, []uint32{0, 4}); tr != nil || v != 0 {
		t.Errorf("fallback load: v=%d trap=%v", v, tr)
	}
	if _, tr := runMain(t, p, []uint32{testMemSize - 3, 0}); tr == nil || tr.Kind != mem.TrapOOBLoad {
		t.Errorf("fallback load OOB: want TrapOOBLoad, got %v", tr)
	}
}

// TestElidedAccessStillExact: proofs may remove checks, never change
// observable behavior — the proven loop from TestVerifyStatsElision must
// produce bit-identical results and memory to the reference engine.
func TestElidedAccessStillExact(t *testing.T) {
	src := `func main(a, b) {
	var i = 0;
	var s = 0;
	while (i < 1000) {
		s = s + ld32((i % 1000) * 4);
		st32(((i % 500) * 4) + 4096, s + a);
		i = i + 1;
	}
	return s;
}`
	mod := compileGEL(t, src)
	init := make([]byte, testMemSize)
	rand.New(rand.NewSource(11)).Read(init)
	for _, pol := range aotPolicies {
		ref := newRef(t, mod, pol.cfg, init, 0)
		rv, rt := runMain(t, ref, []uint32{3, 0})
		p := newProg(t, mod, pol.cfg, init, 0)
		av, at := runMain(t, p, []uint32{3, 0})
		checkSameAsRef(t, "elided loop "+pol.name, src,
			rv, rt, ref.Memory().Data, ref.FuelUsed(),
			av, at, p.Memory().Data, p.FuelUsed())
	}
}

// TestRejectionAgreement is the load-time taxonomy contract: aot.New
// accepts exactly the modules bytecode.Verify accepts, and surfaces the
// verifier's own error for the rest — one rejection taxonomy, not two.
func TestRejectionAgreement(t *testing.T) {
	mk := func(code ...bytecode.Instr) *bytecode.Module {
		m := &bytecode.Module{Funcs: []*bytecode.Func{{
			Name: "main", NArgs: 2, NLocals: 2, Code: code,
		}}}
		m.Index()
		return m
	}
	cases := []struct {
		name string
		mod  *bytecode.Module
	}{
		{"ok-minimal", mk(
			bytecode.Instr{Op: bytecode.OpConst, A: 1},
			bytecode.Instr{Op: bytecode.OpRet},
		)},
		{"stack-underflow", mk(
			bytecode.Instr{Op: bytecode.OpAdd},
			bytecode.Instr{Op: bytecode.OpRet},
		)},
		{"bad-jump-target", mk(
			bytecode.Instr{Op: bytecode.OpJmp, A: 99},
			bytecode.Instr{Op: bytecode.OpConst, A: 0},
			bytecode.Instr{Op: bytecode.OpRet},
		)},
		{"bad-local", mk(
			bytecode.Instr{Op: bytecode.OpLocalGet, A: 7},
			bytecode.Instr{Op: bytecode.OpRet},
		)},
		{"bad-call-index", mk(
			bytecode.Instr{Op: bytecode.OpCall, A: 5},
			bytecode.Instr{Op: bytecode.OpRet},
		)},
		{"missing-terminator", mk(
			bytecode.Instr{Op: bytecode.OpConst, A: 1},
		)},
		{"depth-mismatch-at-join", mk(
			bytecode.Instr{Op: bytecode.OpLocalGet, A: 0}, // 0: cond
			bytecode.Instr{Op: bytecode.OpJz, A: 4},       // 1: -> 4 with depth 0
			bytecode.Instr{Op: bytecode.OpConst, A: 1},    // 2
			bytecode.Instr{Op: bytecode.OpConst, A: 2},    // 3: depth 2 falls into 4
			bytecode.Instr{Op: bytecode.OpConst, A: 3},    // 4: join
			bytecode.Instr{Op: bytecode.OpRet},            // 5
		)},
		{"invalid-opcode", mk(
			bytecode.Instr{Op: bytecode.Op(200)},
			bytecode.Instr{Op: bytecode.OpRet},
		)},
	}
	for _, tc := range cases {
		verr := bytecode.Verify(tc.mod)
		_, aerr := New(tc.mod, mem.New(1<<12), mem.Config{Policy: mem.PolicyChecked})
		if (verr == nil) != (aerr == nil) {
			t.Errorf("%s: verifier disagreement: bytecode.Verify=%v aot.New=%v", tc.name, verr, aerr)
			continue
		}
		if verr != nil && verr.Error() != aerr.Error() {
			t.Errorf("%s: rejection taxonomy split:\n  bytecode: %v\n  aot:      %v", tc.name, verr, aerr)
		}
	}
}

// TestArmedFaultPlanMatchesOptVM drives the fault-injection contract: an
// armed plan counts policy-level accesses in program order and injects
// at the scheduled index, identically to the reference engine, under
// every policy and both translations — which requires load-time
// disabling of both deferral and elision.
func TestArmedFaultPlanMatchesOptVM(t *testing.T) {
	src := `func main(a, b) {
	var i = 0;
	var s = 0;
	while (i < 6) {
		s = s + ld32((i % 1000) * 4);
		st8(((i % 500) * 4) + 4096, s);
		s = s + ld8(i + 64);
		i = i + 1;
	}
	st32(128, s);
	return s;
}`
	mod := compileGEL(t, src)
	init := make([]byte, testMemSize)
	rand.New(rand.NewSource(23)).Read(init)
	args := []uint32{1, 2}

	// Discover the access count with a pure counting plan.
	counter := &mem.FaultPlan{}
	m := mem.New(testMemSize)
	copy(m.Data, init)
	m.Arm(counter)
	p, err := New(mod, m, mem.Config{Policy: mem.PolicyChecked})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("main", args...); err != nil {
		t.Fatal(err)
	}
	total := counter.Accesses()
	if total == 0 {
		t.Fatal("no accesses observed")
	}

	for _, pol := range aotPolicies {
		for _, tl := range translations {
			for n := uint64(1); n <= total; n++ {
				rm := mem.New(testMemSize)
				copy(rm.Data, init)
				rplan := &mem.FaultPlan{FailOn: n}
				rm.Arm(rplan)
				ref, err := vm.NewOpt(mod, rm, pol.cfg, vm.OptConfig{})
				if err != nil {
					t.Fatal(err)
				}
				_, rerr := ref.Invoke("main", args...)

				am := mem.New(testMemSize)
				copy(am.Data, init)
				aplan := &mem.FaultPlan{FailOn: n}
				am.Arm(aplan)
				ap, err := tl.build(mod, am, pol.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st := ap.VerifyStats(); st.ProvenLoads != 0 || st.ProvenStores != 0 {
					t.Fatalf("armed plan must disable elision: %+v", st)
				}
				_, aerr := ap.Invoke("main", args...)

				label := fmt.Sprintf("%s/%s fault %d", pol.name, tl.name, n)
				rt, _ := rerr.(*mem.Trap)
				at, _ := aerr.(*mem.Trap)
				if rt == nil || at == nil {
					t.Fatalf("%s: ref=%v aot=%v", label, rerr, aerr)
				}
				if rt.Kind != at.Kind || rt.Addr != at.Addr || rt.PC != at.PC {
					t.Fatalf("%s: trap mismatch ref=%v aot=%v", label, rt, at)
				}
				if rplan.Accesses() != aplan.Accesses() {
					t.Fatalf("%s: access count ref=%d aot=%d", label, rplan.Accesses(), aplan.Accesses())
				}
				if string(rm.Data) != string(am.Data) {
					t.Fatalf("%s: memory diverges", label)
				}
			}
		}
	}
}

// TestStackOverflowAgrees: unbounded recursion preempts at the same
// depth with the same trap as the reference.
func TestStackOverflowAgrees(t *testing.T) {
	src := `func r(n) {
	if (n == 0) { return 0; }
	return r(n - 1) + 1;
}
func main(a, b) { return r(a); }`
	mod := compileGEL(t, src)
	cfg := mem.Config{Policy: mem.PolicyChecked}
	p := newProg(t, mod, cfg, nil, 0)
	if _, tr := runMain(t, p, []uint32{1 << 20, 0}); tr == nil || tr.Kind != mem.TrapStackOverflow {
		t.Fatalf("want stack-overflow trap, got %v", tr)
	}
	if v, tr := runMain(t, p, []uint32{100, 0}); tr != nil || v != 100 {
		t.Fatalf("bounded recursion: v=%d trap=%v", v, tr)
	}
}

// TestAbortCarriesCode: the graft-raised trap keeps its code operand.
func TestAbortCarriesCode(t *testing.T) {
	mod := compileGEL(t, `func main(a, b) { abort(a + b); return 0; }`)
	p := newProg(t, mod, mem.Config{Policy: mem.PolicyChecked}, nil, 0)
	_, tr := runMain(t, p, []uint32{40, 2})
	if tr == nil || tr.Kind != mem.TrapAbort || tr.Code != 42 {
		t.Fatalf("want abort with code 42, got %v", tr)
	}
}

// TestDirectFuelConsistency: the budget is sampled when the Direct
// closure runs, not when it is resolved.
func TestDirectFuelConsistency(t *testing.T) {
	src := `func main(a, b) {
	var i = 0;
	while (i < 10000) { i = i + 1; }
	return i;
}`
	mod := compileGEL(t, src)
	p := newProg(t, mod, mem.Config{Policy: mem.PolicyChecked}, nil, 0)
	fn, ok := p.Direct("main")
	if !ok {
		t.Fatal("Direct failed")
	}
	args := []uint32{0, 0}
	if v, err := fn(args); err != nil || v != 10000 {
		t.Fatalf("unmetered: v=%d err=%v", v, err)
	}
	p.Fuel = 100
	if _, err := fn(args); err == nil {
		t.Fatal("starved closure completed; Fuel was sampled at resolve time")
	} else if tr, k := err.(*mem.Trap), true; !k || tr.Kind != mem.TrapFuel {
		t.Fatalf("want fuel trap, got %v", err)
	}
	p.Fuel = 0
	if v, err := fn(args); err != nil || v != 10000 {
		t.Fatalf("re-unmetered: v=%d err=%v", v, err)
	}
}

// TestProfileAttribution: the sampling profiler piggybacks on the block
// fuel charge and attributes samples to the loop's source lines.
func TestProfileAttribution(t *testing.T) {
	src := `func main(a, b) {
	var i = 0;
	var s = 0;
	while (i < 2000) {
		s = s + i * 3;
		i = i + 1;
	}
	return s;
}`
	mod := compileGEL(t, src)
	p := newProg(t, mod, mem.Config{Policy: mem.PolicyChecked}, nil, 0)
	prof, err := telemetry.NewProfile(64)
	if err != nil {
		t.Fatal(err)
	}
	p.SetProfile(prof.Scope("g", "aot"), prof.Interval())
	if _, err := p.Invoke("main", 0, 0); err != nil {
		t.Fatal(err)
	}
	samples := prof.Samples()
	if len(samples) == 0 {
		t.Fatal("no profile samples collected")
	}
	var loopFuel, total int64
	for _, s := range samples {
		if s.Func != "main" {
			t.Errorf("sample attributed to %q, want main", s.Func)
		}
		total += s.Fuel
		if s.Line >= 4 && s.Line <= 6 { // loop head and body
			loopFuel += s.Fuel
		}
	}
	if loopFuel*10 < total*9 {
		t.Errorf("loop owns %d of %d sampled fuel, want >= 90%%", loopFuel, total)
	}
	// Detach and confirm the countdown stops.
	p.SetProfile(nil, 0)
	before := prof.TotalFuel()
	if _, err := p.Invoke("main", 0, 0); err != nil {
		t.Fatal(err)
	}
	if prof.TotalFuel() != before {
		t.Error("detached profiler still collected samples")
	}
}

// TestInvokeNoAllocSteadyState: the frame arena and per-call-site scratch
// make hot-path invocations allocation-free after warm-up — table stakes
// for the class's performance claim.
func TestInvokeNoAllocSteadyState(t *testing.T) {
	src := `func h(p, q) { return p * q + 1; }
func main(a, b) {
	var s = 0;
	var i = 0;
	while (i < 4) { s = s + h(a, i) + ld32((i % 100) * 4); i = i + 1; }
	return s;
}`
	mod := compileGEL(t, src)
	p := newProg(t, mod, mem.Config{Policy: mem.PolicyChecked}, nil, 0)
	fn, ok := p.Direct("main")
	if !ok {
		t.Fatal("Direct failed")
	}
	args := []uint32{3, 0}
	if _, err := fn(args); err != nil { // warm the arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := fn(args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Invoke allocates %.1f objects per call, want 0", allocs)
	}
}

// TestWrongArity and unknown entry points are errors, not panics.
func TestInvokeErrors(t *testing.T) {
	mod := compileGEL(t, `func main(a, b) { return a; }`)
	p := newProg(t, mod, mem.Config{Policy: mem.PolicyChecked}, nil, 0)
	if _, err := p.Invoke("nope"); err == nil {
		t.Error("unknown entry accepted")
	}
	if _, err := p.Invoke("main", 1); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, ok := p.Direct("nope"); ok {
		t.Error("Direct resolved unknown entry")
	}
}
