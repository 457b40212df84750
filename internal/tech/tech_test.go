package tech

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"graftlab/internal/compile"
	"graftlab/internal/gel"
	"graftlab/internal/mem"
)

const memSize = 1 << 16

// loadAll loads src under every technology that can carry it.
func loadAll(t *testing.T, src Source) map[ID]Graft {
	t.Helper()
	out := make(map[ID]Graft)
	for _, id := range All {
		if id == Script && src.Tcl == "" {
			continue
		}
		if NeedsCompiledImpl(id) && src.Compiled == nil {
			continue
		}
		if id == Domain && len(src.Hipec) == 0 {
			continue
		}
		g, err := Load(id, src, mem.New(memSize), Options{})
		if err != nil {
			t.Fatalf("load %s: %v", id, err)
		}
		out[id] = g
	}
	return out
}

// fixture programs with known results, each written in GEL and mini-Tcl.
var fixtures = []struct {
	src  Source
	args []uint32
	want uint32
}{
	{
		src: Source{
			Name: "add",
			GEL:  `func main(a, b) { return a + b; }`,
			Tcl:  `proc main {a b} { return [expr {$a + $b}] }`,
		},
		args: []uint32{7, 35}, want: 42,
	},
	{
		src: Source{
			Name: "wrapping",
			GEL:  `func main(a, b) { return a * b + 1; }`,
			Tcl:  `proc main {a b} { return [expr {$a * $b + 1}] }`,
		},
		args: []uint32{0xFFFFFFFF, 2}, want: 0xFFFFFFFF, // (2^32-1)*2+1 mod 2^32
	},
	{
		src: Source{
			Name: "loop-sum",
			GEL: `func main(n) {
				var sum = 0;
				var i = 1;
				while (i <= n) { sum = sum + i; i = i + 1; }
				return sum;
			}`,
			Tcl: `proc main {n} {
				set sum 0
				set i 1
				while {$i <= $n} { set sum [expr {$sum + $i}]; incr i }
				return $sum
			}`,
		},
		args: []uint32{100}, want: 5050,
	},
	{
		src: Source{
			Name: "collatz-steps",
			GEL: `func main(n) {
				var steps = 0;
				while (n != 1) {
					if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
					steps = steps + 1;
				}
				return steps;
			}`,
			Tcl: `proc main {n} {
				set steps 0
				while {$n != 1} {
					if {$n % 2 == 0} { set n [expr {$n / 2}] } else { set n [expr {3 * $n + 1}] }
					incr steps
				}
				return $steps
			}`,
		},
		args: []uint32{27}, want: 111,
	},
	{
		src: Source{
			Name: "memory-roundtrip",
			GEL: `func main(a, v) {
				st32(a, v);
				st8(a + 64, v);
				return ld32(a) + ld8(a + 64);
			}`,
			Tcl: `proc main {a v} {
				st32 $a $v
				st8 [expr {$a + 64}] $v
				return [expr {[ld32 $a] + [ld8 [expr {$a + 64}]]}]
			}`,
		},
		args: []uint32{4096, 0x01020384}, want: 0x01020384 + 0x84,
	},
	{
		src: Source{
			Name: "fib-recursive",
			GEL: `func fib(n) {
				if (n < 2) { return n; }
				return fib(n - 1) + fib(n - 2);
			}
			func main(n) { return fib(n); }`,
			Tcl: `proc fib {n} {
				if {$n < 2} { return $n }
				return [expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}]
			}
			proc main {n} { return [fib $n] }`,
		},
		args: []uint32{15}, want: 610,
	},
	{
		src: Source{
			Name: "bitops",
			GEL: `func main(x) {
				var r = rotl(x, 7) ^ rotr(x, 3);
				r = r | (x << 4) & ~(x >> 2);
				return min(r, max(x, 0x1000));
			}`,
			// rotl/rotr spelled out with shifts in Tcl.
			Tcl: `proc main {x} {
				set rl [expr {(($x << 7) | ($x >> 25))}]
				set rr [expr {(($x >> 3) | ($x << 29))}]
				set r [expr {$rl ^ $rr}]
				set r [expr {$r | ($x << 4) & ~($x >> 2)}]
				if {$x > 0x1000} { set mx $x } else { set mx 0x1000 }
				if {$r < $mx} { return $r }
				return $mx
			}`,
		},
		args: []uint32{0xDEADBEEF},
	},
	{
		src: Source{
			Name: "logic",
			GEL: `func main(a, b) {
				var r = 0;
				if (a && !b) { r = r + 1; }
				if (a || b) { r = r + 2; }
				if (!(a == b)) { r = r + 4; }
				return r;
			}`,
			Tcl: `proc main {a b} {
				set r 0
				if {$a && !$b} { incr r 1 }
				if {$a || $b} { incr r 2 }
				if {!($a == $b)} { incr r 4 }
				return $r
			}`,
		},
		args: []uint32{5, 0}, want: 7,
	},
	{
		src: Source{
			Name: "break-continue",
			GEL: `func main(n) {
				var acc = 0;
				var i = 0;
				while (1) {
					i = i + 1;
					if (i > n) { break; }
					if (i % 3 == 0) { continue; }
					acc = acc + i;
				}
				return acc;
			}`,
			Tcl: `proc main {n} {
				set acc 0
				set i 0
				while {1} {
					incr i
					if {$i > $n} { break }
					if {$i % 3 == 0} { continue }
					set acc [expr {$acc + $i}]
				}
				return $acc
			}`,
		},
		args: []uint32{10}, want: 37, // 1+2+4+5+7+8+10
	},
}

func TestFixturesAgreeAcrossTechnologies(t *testing.T) {
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.src.Name, func(t *testing.T) {
			grafts := loadAll(t, fx.src)
			ref, err := grafts[NativeUnsafe].Invoke("main", fx.args...)
			if err != nil {
				t.Fatalf("native-unsafe: %v", err)
			}
			if fx.want != 0 && ref != fx.want {
				t.Errorf("native-unsafe = %d, want %d", ref, fx.want)
			}
			for id, g := range grafts {
				got, err := g.Invoke("main", fx.args...)
				if err != nil {
					t.Errorf("%s: %v", id, err)
					continue
				}
				if got != ref {
					t.Errorf("%s = %d, native-unsafe = %d", id, got, ref)
				}
			}
		})
	}
}

// TestRandomProgramsAgree is the differential property test: generated GEL
// programs must produce identical results (or all trap) under every GEL-
// carrying technology.
func TestRandomProgramsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	n := 300
	if testing.Short() {
		n = 50
	}
	for i := 0; i < n; i++ {
		src := Source{Name: fmt.Sprintf("rand-%d", i), GEL: randomProgram(rng)}
		args := []uint32{rng.Uint32(), rng.Uint32() % 1024, rng.Uint32() % 7}

		type outcome struct {
			val     uint32
			trapped bool
		}
		var ref outcome
		var refMem []byte
		variants := []struct {
			id ID
			vm VMMode
		}{
			{NativeUnsafe, ""}, {NativeSafe, ""}, {NativeSafeNil, ""},
			{SFIFull, ""}, {Bytecode, VMOpt}, {Bytecode, VMBaseline},
		}
		for j, va := range variants {
			id := va.id
			m := mem.New(memSize)
			g, err := Load(id, src, m, Options{Fuel: 1 << 20, VM: va.vm})
			if err != nil {
				t.Fatalf("program %d: load %s: %v\n%s", i, id, err, src.GEL)
			}
			v, err := g.Invoke("main", args...)
			got := outcome{val: v, trapped: err != nil}
			if j == 0 {
				ref = got
				refMem = m.Data
				continue
			}
			if got != ref {
				t.Fatalf("program %d: %s = %+v (err=%v), native-unsafe = %+v\nargs=%v\n%s",
					i, id, got, err, ref, args, src.GEL)
			}
			// Memory side effects must match when no trap occurred.
			// (After a trap, technologies legitimately diverge: an SFI
			// store is redirected while a checked store is suppressed.)
			if !ref.trapped && string(refMem) != string(m.Data) {
				t.Fatalf("program %d: %s memory diverges from native-unsafe\n%s", i, id, src.GEL)
			}
		}
	}
}

// randomProgram emits a GEL program whose memory accesses stay in bounds,
// so a trap can only come from arithmetic — and must be agreed on by all
// backends.
func randomProgram(rng *rand.Rand) string {
	g := &progGen{rng: rng}
	body := g.stmts(3, 2)
	return fmt.Sprintf(`func main(a, b, c) {
	var x = a;
	var y = b;
	var z = 1;
%s	return x ^ y + z;
}`, body)
}

type progGen struct {
	rng *rand.Rand
}

func (g *progGen) stmts(n, depth int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += g.stmt(depth)
	}
	return out
}

func (g *progGen) stmt(depth int) string {
	vars := []string{"x", "y", "z"}
	v := vars[g.rng.Intn(len(vars))]
	switch r := g.rng.Intn(10); {
	case r < 4:
		return fmt.Sprintf("\t%s = %s;\n", v, g.expr(depth))
	case r < 6 && depth > 0:
		return fmt.Sprintf("\tif (%s) {\n%s\t} else {\n%s\t}\n",
			g.expr(depth-1), g.stmts(2, depth-1), g.stmts(1, depth-1))
	case r < 7 && depth > 0:
		// bounded loop
		return fmt.Sprintf("\t{ var i = 0; while (i < %d) { i = i + 1;\n%s\t} }\n",
			g.rng.Intn(8)+1, g.stmts(1, depth-1))
	case r < 8:
		// Addresses stay in [4096, 64 KiB) so the NIL-page ablation agrees
		// with the other technologies.
		return fmt.Sprintf("\tst32(((%s) %% 15360 + 1024) * 4, %s);\n", g.expr(depth), g.expr(depth))
	default:
		return fmt.Sprintf("\t%s = ld32(((%s) %% 15360 + 1024) * 4);\n", v, g.expr(depth))
	}
}

func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(5) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Uint32()%1000)
		case 1:
			return "x"
		case 2:
			return "y"
		case 3:
			return "z"
		default:
			return fmt.Sprintf("0x%x", g.rng.Uint32())
		}
	}
	ops := []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "==", "!=",
		"<", "<=", ">", ">=", "&&", "||", "/", "%"}
	op := ops[g.rng.Intn(len(ops))]
	x := g.expr(depth - 1)
	y := g.expr(depth - 1)
	if g.rng.Intn(8) == 0 {
		fn := []string{"rotl", "rotr", "min", "max"}[g.rng.Intn(4)]
		return fmt.Sprintf("%s(%s, %s)", fn, x, y)
	}
	if g.rng.Intn(10) == 0 {
		return fmt.Sprintf("~(%s)", x)
	}
	return fmt.Sprintf("((%s) %s (%s))", x, op, y)
}

// TestFoldedProgramsAgree: constant folding must never change behaviour.
func TestFoldedProgramsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	n := 200
	if testing.Short() {
		n = 40
	}
	for i := 0; i < n; i++ {
		src := Source{Name: fmt.Sprintf("fold-%d", i), GEL: randomProgram(rng)}
		args := []uint32{rng.Uint32(), rng.Uint32() % 512, rng.Uint32() % 9}
		for _, id := range []ID{NativeUnsafe, Bytecode} {
			plain, err := Load(id, src, mem.New(memSize), Options{})
			if err != nil {
				t.Fatal(err)
			}
			folded := loadFolded(t, id, src.GEL)
			v1, e1 := plain.Invoke("main", args...)
			v2, e2 := folded.Invoke("main", args...)
			if v1 != v2 || (e1 != nil) != (e2 != nil) {
				t.Fatalf("program %d under %s: plain=(%d,%v) folded=(%d,%v)\n%s",
					i, id, v1, e1, v2, e2, src.GEL)
			}
		}
	}
}

// loadFolded binds an engine for id to src with gel.Fold run between the
// checker and the compiler, as graftc -O does.
func loadFolded(t *testing.T, id ID, src string) Graft {
	t.Helper()
	prog, err := gel.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	gel.Fold(prog)
	mod, err := compile.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Config(id)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newModuleEngine(id, mod, mem.New(memSize), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTrapsAreRecoverable(t *testing.T) {
	src := Source{
		Name: "oob-store",
		GEL:  `func main(a) { st32(a, 1); return ld32(a); }`,
		Tcl:  `proc main {a} { st32 $a 1; return [ld32 $a] }`,
	}
	far := uint32(1 << 30) // far outside the 64 KiB memory
	for _, id := range []ID{NativeSafe, NativeSafeNil, Bytecode, Script} {
		g, err := Load(id, src, mem.New(memSize), Options{})
		if err != nil {
			t.Fatalf("load %s: %v", id, err)
		}
		_, err = g.Invoke("main", far)
		var trap *mem.Trap
		if !errors.As(err, &trap) {
			t.Errorf("%s: err = %v, want *mem.Trap", id, err)
			continue
		}
		if trap.Kind != mem.TrapOOBStore {
			t.Errorf("%s: trap kind = %v, want OOB store", id, trap.Kind)
		}
		// The graft must remain invokable after a trap. Use an address
		// above the NIL page so every checked variant accepts it.
		if v, err := g.Invoke("main", 8192); err != nil || v != 1 {
			t.Errorf("%s: post-trap invoke = %d, %v", id, v, err)
		}
	}
}

func TestSandboxRedirectsInsteadOfTrapping(t *testing.T) {
	src := Source{
		Name: "sfi-store",
		GEL:  `func main(a, v) { st32(a, v); return 0; }`,
	}
	for _, id := range []ID{SFI, SFIFull} {
		m := mem.New(memSize)
		g, err := Load(id, src, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Store "outside": address = memSize + 256. SFI masks it to 256.
		if _, err := g.Invoke("main", memSize+256, 0xABCD); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := m.Ld32U(256); got != 0xABCD {
			t.Errorf("%s: masked store landed wrong: mem[256] = %#x", id, got)
		}
	}
}

func TestSFIWithoutReadProtectionTrapsOnWildLoad(t *testing.T) {
	// The Omniware beta had no read protection: a wild load is not masked.
	// In our model the whole address space is the sandbox, so an unmasked
	// wild load hits the crash backstop rather than being redirected.
	src := Source{Name: "wild-load", GEL: `func main(a) { return ld32(a); }`}
	g, err := Load(SFI, src, mem.New(memSize), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Invoke("main", memSize+8); err == nil {
		t.Fatal("wild load under write-only SFI should fault")
	}
	// With full protection the same load is silently masked.
	gf, err := Load(SFIFull, src, mem.New(memSize), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gf.Invoke("main", memSize+8); err != nil {
		t.Fatalf("masked load under full SFI should succeed: %v", err)
	}
}

func TestNilPageCheck(t *testing.T) {
	src := Source{Name: "nil", GEL: `func main(a) { return ld32(a); }`}
	gNil, err := Load(NativeSafeNil, src, mem.New(memSize), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = gNil.Invoke("main", 8)
	var trap *mem.Trap
	if !errors.As(err, &trap) || trap.Kind != mem.TrapNilDeref {
		t.Fatalf("NIL-page load: err = %v, want NIL trap", err)
	}
	// Plain safe mode reads the NIL page without complaint (hardware would
	// have caught a real NIL, but address 8 is a legal offset here).
	gSafe, err := Load(NativeSafe, src, mem.New(memSize), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gSafe.Invoke("main", 8); err != nil {
		t.Fatalf("safe-mode low load: %v", err)
	}
}

func TestFuelPreemptsRunawayGrafts(t *testing.T) {
	src := Source{
		Name: "spin",
		GEL:  `func main() { while (1) { } return 0; }`,
		Tcl:  `proc main {} { while {1} { } ; return 0 }`,
	}
	for _, id := range []ID{NativeUnsafe, NativeSafe, SFI, Bytecode, Script} {
		if id == Script && src.Tcl == "" {
			continue
		}
		g, err := Load(id, src, mem.New(memSize), Options{Fuel: 10000})
		if err != nil {
			t.Fatalf("load %s: %v", id, err)
		}
		_, err = g.Invoke("main")
		var trap *mem.Trap
		if !errors.As(err, &trap) || trap.Kind != mem.TrapFuel {
			t.Errorf("%s: err = %v, want fuel trap", id, err)
		}
	}
}

func TestAbortSurfacesCode(t *testing.T) {
	src := Source{
		Name: "abort",
		GEL:  `func main(c) { abort(c); return 0; }`,
		Tcl:  `proc main {c} { abort $c; return 0 }`,
	}
	for id, g := range loadAll(t, src) {
		_, err := g.Invoke("main", 77)
		var trap *mem.Trap
		if !errors.As(err, &trap) || trap.Kind != mem.TrapAbort || trap.Code != 77 {
			t.Errorf("%s: err = %v, want abort(77)", id, err)
		}
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	src := Source{
		Name: "div0",
		GEL:  `func main(a) { return 10 / a; }`,
	}
	for _, id := range []ID{NativeUnsafe, NativeSafe, SFI, Bytecode} {
		g, err := Load(id, src, mem.New(memSize), Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = g.Invoke("main", 0)
		var trap *mem.Trap
		if !errors.As(err, &trap) || trap.Kind != mem.TrapDivZero {
			t.Errorf("%s: err = %v, want div-zero trap", id, err)
		}
		if v, err := g.Invoke("main", 5); err != nil || v != 2 {
			t.Errorf("%s: 10/5 = %d, %v", id, v, err)
		}
	}
}

func TestDeepRecursionTraps(t *testing.T) {
	src := Source{
		Name: "deep",
		GEL:  `func f(n) { return f(n + 1); } func main() { return f(0); }`,
		Tcl:  `proc f {n} { return [f [expr {$n + 1}]] } ; proc main {} { return [f 0] }`,
	}
	for id, g := range loadAll(t, src) {
		_, err := g.Invoke("main")
		var trap *mem.Trap
		if !errors.As(err, &trap) || trap.Kind != mem.TrapStackOverflow {
			t.Errorf("%s: err = %v, want stack-overflow trap", id, err)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("no-such-tech", Source{GEL: "func main() {}"}, mem.New(memSize), Options{}); err == nil {
		t.Error("unknown technology should fail")
	}
	if _, err := Load(CompiledUnsafe, Source{Name: "x", GEL: "func main() {}"}, mem.New(memSize), Options{}); err == nil {
		t.Error("compiled load without implementation should fail")
	}
	if _, err := Load(Script, Source{Name: "x", GEL: "func main() {}"}, mem.New(memSize), Options{}); err == nil {
		t.Error("script load without Tcl source should fail")
	}
	if _, err := Load(NativeUnsafe, Source{GEL: "not gel"}, mem.New(memSize), Options{}); err == nil {
		t.Error("bad GEL should fail")
	}
	g, _ := Load(NativeUnsafe, Source{GEL: "func main() { return 1; }"}, mem.New(memSize), Options{})
	if _, err := g.Invoke("nope"); err == nil {
		t.Error("unknown entry should fail")
	}
	if _, err := g.Invoke("main", 1, 2, 3); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestPaperNamesAndConfigs(t *testing.T) {
	for _, id := range All {
		if PaperName(id) == string(id) {
			t.Errorf("%s has no paper name", id)
		}
		if _, err := Config(id); err != nil {
			t.Errorf("Config(%s): %v", id, err)
		}
	}
	if _, err := Config("bogus"); err == nil {
		t.Error("Config(bogus) should fail")
	}
}
