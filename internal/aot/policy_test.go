package aot

// Unit tests of the runtime-codegen translation (NewNoElision): every
// memory policy the five runtime-codegen classes run under, the calling
// convention, and the entry points. The differential tests in
// aot_test.go and fuzz_test.go hold the same translation to vm.OptVM;
// these pin the behaviours by name.

import (
	"errors"
	"testing"

	"graftlab/internal/mem"
)

// everyPolicy lists the five runtime-codegen classes' memory configs.
var everyPolicy = []mem.Config{
	{Policy: mem.PolicyUnsafe},
	{Policy: mem.PolicyChecked},
	{Policy: mem.PolicyChecked, NilCheck: true},
	{Policy: mem.PolicySandbox},
	{Policy: mem.PolicySandbox, ReadProtect: true},
}

// codegenProg translates src without elision over a fresh memory of the
// given size.
func codegenProg(t *testing.T, src string, size uint32, cfg mem.Config) *Prog {
	t.Helper()
	p, err := NewNoElision(compileGEL(t, src), mem.New(size), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBasicEvaluation(t *testing.T) {
	p := codegenProg(t, `func main(a, b) { return (a + b) * 2; }`, 1<<13, mem.Config{})
	if got, err := p.Invoke("main", 3, 4); err != nil || got != 14 {
		t.Fatalf("main = %d, %v", got, err)
	}
}

// TestDeepCallsGrowArena: many-local frames under recursion outgrow the
// register arena, which must grow without corrupting live frames.
func TestDeepCallsGrowArena(t *testing.T) {
	src := `
	func f(n) {
		var a = 1; var b = 2; var c = 3; var d = 4;
		var e = 5; var g = 6; var h = 7; var i = 8;
		if (n == 0) { return a + b + c + d + e + g + h + i; }
		return f(n - 1);
	}
	func main() { return f(200); }`
	p := codegenProg(t, src, 1<<13, mem.Config{})
	if got, err := p.Invoke("main"); err != nil || got != 36 {
		t.Fatalf("main = %d, %v", got, err)
	}
}

// TestRecursionDepthLimit: unbounded recursion traps, and the trap
// leaves the program reusable with the same outcome.
func TestRecursionDepthLimit(t *testing.T) {
	p := codegenProg(t, `func f() { return f(); } func main() { return f(); }`, 1<<13, mem.Config{})
	for i := 0; i < 2; i++ {
		_, err := p.Invoke("main")
		var trap *mem.Trap
		if !errors.As(err, &trap) || trap.Kind != mem.TrapStackOverflow {
			t.Fatalf("call %d: err = %v, want stack overflow", i, err)
		}
	}
}

// TestLocalsZeroedBetweenCalls: locals start at 0 on every call even
// though the arena is reused.
func TestLocalsZeroedBetweenCalls(t *testing.T) {
	src := `
	func leak(set) {
		var x = 0;
		if (set) { x = 99; }
		return x;
	}
	func main(set) { return leak(set); }`
	p := codegenProg(t, src, 1<<13, mem.Config{})
	if got, _ := p.Invoke("main", 1); got != 99 {
		t.Fatalf("first = %d", got)
	}
	if got, _ := p.Invoke("main", 0); got != 0 {
		t.Fatalf("arena leaked stale local: %d", got)
	}
}

// TestPolicySpecializationCheckedVsSandbox: the same wild store traps
// under the checked policy and is masked into the region under SFI.
func TestPolicySpecializationCheckedVsSandbox(t *testing.T) {
	src := `func main(a) { st32(a, 7); return ld32(a % 4096 / 4 * 4); }`
	checked := codegenProg(t, src, 1<<13, mem.Config{Policy: mem.PolicyChecked})
	if _, err := checked.Invoke("main", 999999); err == nil {
		t.Error("checked store out of range accepted")
	}
	sandbox := codegenProg(t, src, 1<<13, mem.Config{Policy: mem.PolicySandbox})
	if _, err := sandbox.Invoke("main", 999999); err != nil {
		t.Errorf("sandbox store should be masked, got %v", err)
	}
	// The word landed at the masked address, addr&mask&^3.
	if got := sandbox.Memory().Ld32U(999999 & (1<<13 - 1) &^ 3); got != 7 {
		t.Errorf("masked store landed wrong: %d", got)
	}
}

// TestInvokeValidation: an unknown entry point and a wrong argument
// count are errors, and the program exposes its memory.
func TestInvokeValidation(t *testing.T) {
	p := codegenProg(t, `func main(a) { return a; }`, 1<<13, mem.Config{})
	if _, err := p.Invoke("nope"); err == nil {
		t.Error("missing entry accepted")
	}
	if _, err := p.Invoke("main"); err == nil {
		t.Error("wrong arity accepted")
	}
	if p.Memory() == nil {
		t.Error("Memory() nil")
	}
}

func TestThreeArgCallPath(t *testing.T) {
	src := `
	func g(a, b, c) { return a * 100 + b * 10 + c; }
	func main() { return g(1, 2, 3); }`
	p := codegenProg(t, src, 1<<13, mem.Config{})
	if got, _ := p.Invoke("main"); got != 123 {
		t.Fatalf("got %d", got)
	}
}

func TestLd8St8Policies(t *testing.T) {
	src := `func main(a, v) { st8(a, v); return ld8(a); }`
	for _, cfg := range everyPolicy {
		p := codegenProg(t, src, 1<<13, cfg)
		if got, err := p.Invoke("main", 4200, 200); err != nil || got != 200 {
			t.Errorf("%+v: got %d, %v", cfg, got, err)
		}
	}
}

// TestAllExpressionFormsUnderEveryPolicy drives one program through
// every operator, builtin, and statement form under each memory policy
// and both translations, so every policy-specialized emitter runs; the
// program stays in bounds, so all must agree.
func TestAllExpressionFormsUnderEveryPolicy(t *testing.T) {
	src := `
	func callee0() { return 7; }
	func callee1(a) { return a + 1; }
	func callee2(a, b) { return a * b; }
	func callee4(a, b, c, d) { return a ^ b ^ c ^ d; }

	func main(a, b) {
		var r = 0;
		// every binary operator
		r = r + (a + b) + (a - b) + (a * b);
		if (b != 0) { r = r + a / b + a % b; }
		r = r + (a & b) + (a | b) + (a ^ b);
		r = r + (a << 3) + (a >> 2);
		r = r + (a == b) + (a != b) + (a < b) + (a <= b) + (a > b) + (a >= b);
		r = r + (a && b) + (a || b);
		// unary
		r = r + (-a) + (!a) + (~a);
		// builtins: constant, register and expression addresses
		st32(0x2000, r);
		st8(0x2100, r);
		var p = 0x2200;
		st32(p, a);
		st8(p + 4, b);
		st32(p + 8, r);
		r = r + ld32(0x2000) + ld8(0x2100) + ld32(p) + ld8(p + 4) + ld32(p + 8);
		r = r + rotl(a, 5) + rotr(b, 3) + min(a, b) + max(a, b) + memsize();
		// calls of each specialized arity
		r = r + callee0() + callee1(a) + callee2(a, b) + callee4(a, b, 1, 2);
		// control-flow statements
		var i = 0;
		while (i < 4) {
			i = i + 1;
			if (i == 2) { continue; }
			if (i == 3) { break; }
		}
		{ var shadow = 1; r = r + shadow; }
		if (r == 0) { return 1; } else if (r == 1) { return 2; }
		return r;
	}`
	mod := compileGEL(t, src)
	var want uint32
	for i, cfg := range everyPolicy {
		for j, tl := range translations {
			p, err := tl.build(mod, mem.New(1<<15), cfg)
			if err != nil {
				t.Fatalf("%+v %s: %v", cfg, tl.name, err)
			}
			got, err := p.Invoke("main", 0xDEAD, 13)
			if err != nil {
				t.Fatalf("%+v %s: %v", cfg, tl.name, err)
			}
			if i == 0 && j == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("%+v %s: got %d, want %d", cfg, tl.name, got, want)
			}
		}
	}
}

// TestDirectFastPath: the pre-resolved entry validates arity and
// surfaces traps, and the program stays usable after one.
func TestDirectFastPath(t *testing.T) {
	p := codegenProg(t, `func main(a) { return a * 3; }`, 1<<12, mem.Config{})
	fn, ok := p.Direct("main")
	if !ok {
		t.Fatal("Direct failed to resolve")
	}
	if _, ok := p.Direct("missing"); ok {
		t.Fatal("Direct resolved a missing entry")
	}
	if v, err := fn([]uint32{14}); err != nil || v != 42 {
		t.Fatalf("direct call = %d, %v", v, err)
	}
	if _, err := fn([]uint32{1, 2}); err == nil {
		t.Fatal("wrong arity accepted through Direct")
	}
	pt := codegenProg(t, `func main(a) { return 1 / a; }`, 1<<12, mem.Config{})
	dt, _ := pt.Direct("main")
	if _, err := dt([]uint32{0}); err == nil {
		t.Fatal("trap not surfaced through Direct")
	}
	if v, err := dt([]uint32{1}); err != nil || v != 1 {
		t.Fatalf("post-trap direct call = %d, %v", v, err)
	}
}

// TestUnsafeWildLoadIsBackstopped: the unsafe policy's loads keep the
// bounds backstop that stands in for the kernel crash.
func TestUnsafeWildLoadIsBackstopped(t *testing.T) {
	p := codegenProg(t, `func main(a) { return ld8(a) + ld32(a); }`, 1<<12, mem.Config{})
	if _, err := p.Invoke("main", 1<<28); err == nil {
		t.Fatal("wild load did not fault")
	}
}

// TestSandboxReadProtectLd8: under read protection a wild byte load is
// masked into the region instead of trapping; without it, the same load
// hits the backstop.
func TestSandboxReadProtectLd8(t *testing.T) {
	src := `func main(a) { return ld8(a); }`
	p := codegenProg(t, src, 1<<12, mem.Config{Policy: mem.PolicySandbox, ReadProtect: true})
	p.Memory().St8U(5, 99)
	if v, err := p.Invoke("main", 4101); err != nil || v != 99 { // 4101 masks to 5
		t.Fatalf("masked ld8 = %d, %v", v, err)
	}
	w := codegenProg(t, src, 1<<12, mem.Config{Policy: mem.PolicySandbox})
	if _, err := w.Invoke("main", 4101); err == nil {
		t.Fatal("write/jump-only SFI masked a load")
	}
}

// TestNoElisionProvesNothing: the runtime-codegen translation runs no
// interval analysis, so even a provable access keeps its check; the AOT
// translation of the same module elides it.
func TestNoElisionProvesNothing(t *testing.T) {
	mod := compileGEL(t, `func main(a, b) {
	var i = 0;
	var s = 0;
	while (i < 1000) {
		s = s + ld32((i % 1000) * 4);
		st32(((i % 500) * 4) + 4096, s);
		i = i + 1;
	}
	return s;
}`)
	cfg := mem.Config{Policy: mem.PolicyChecked}
	if st := buildProg(t, NewNoElision, mod, cfg, nil, 0).VerifyStats(); st != (Stats{Loads: 1, Stores: 1}) {
		t.Errorf("no-elision stats = %+v, want sites counted and nothing proven", st)
	}
	if st := buildProg(t, New, mod, cfg, nil, 0).VerifyStats(); st.ProvenLoads != 1 || st.ProvenStores != 1 {
		t.Errorf("elision stats = %+v, want both accesses proven", st)
	}
}
