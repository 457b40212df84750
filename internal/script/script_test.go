package script

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"graftlab/internal/mem"
)

func newInterp(t *testing.T) *Interp {
	t.Helper()
	return New(mem.New(1<<12), mem.Config{Policy: mem.PolicyChecked})
}

func evalOK(t *testing.T, in *Interp, src string) string {
	t.Helper()
	res, _, err := in.eval(src)
	if err != nil {
		t.Fatalf("eval(%q): %v", src, err)
	}
	return res
}

func TestSetAndRead(t *testing.T) {
	in := newInterp(t)
	if got := evalOK(t, in, "set x 42"); got != "42" {
		t.Fatalf("set returned %q", got)
	}
	if got := evalOK(t, in, "set x"); got != "42" {
		t.Fatalf("read returned %q", got)
	}
	if _, _, err := in.eval("set nosuch"); err == nil {
		t.Fatal("reading unset variable succeeded")
	}
}

func TestSubstitutionForms(t *testing.T) {
	in := newInterp(t)
	evalOK(t, in, "set a 7")
	cases := map[string]string{
		`set b $a`:              "7",
		`set c ${a}`:            "7",
		`set d [set a]`:         "7",
		`set e "val=$a"`:        "val=7",
		`set f {literal $a}`:    "literal $a",
		`set g a\ b`:            "a b",
		`set h [expr {$a + 1}]`: "8",
	}
	for src, want := range cases {
		if got := evalOK(t, in, src); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

func TestCommentsAndSeparators(t *testing.T) {
	in := newInterp(t)
	got := evalOK(t, in, "# a comment\nset x 1; set y 2\nset z [expr {$x + $y}]")
	if got != "3" {
		t.Fatalf("got %q", got)
	}
}

func TestExprOperators(t *testing.T) {
	in := newInterp(t)
	evalOK(t, in, "set x 10")
	cases := map[string]string{
		"expr {2 + 3 * 4}":      "14",
		"expr {(2 + 3) * 4}":    "20",
		"expr {10 % 3}":         "1",
		"expr {1 << 4}":         "16",
		"expr {0x10 >> 2}":      "4",
		"expr {5 < 6}":          "1",
		"expr {5 >= 6}":         "0",
		"expr {1 && 0}":         "0",
		"expr {1 || 0}":         "1",
		"expr {!0}":             "1",
		"expr {~0}":             "4294967295",
		"expr {-1}":             "4294967295",
		"expr {$x * $x}":        "100",
		"expr {5 & 3}":          "1",
		"expr {5 | 3}":          "7",
		"expr {5 ^ 3}":          "6",
		"expr {4294967295 + 1}": "0", // u32 wrap
		"expr {2 == 2}":         "1",
		"expr {2 != 2}":         "0",
	}
	for src, want := range cases {
		if got := evalOK(t, in, src); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

func TestExprShortCircuit(t *testing.T) {
	in := newInterp(t)
	// The dead arm is parsed but never evaluated: no division by zero,
	// no missing-variable error, no command execution.
	cases := map[string]string{
		"expr {0 && 1 / 0}":       "0",
		"expr {1 || 1 / 0}":       "1",
		"expr {0 && $missing}":    "0",
		"expr {1 || $missing}":    "1",
		"expr {0 && [nosuchcmd]}": "0",
		"expr {1 || [nosuchcmd]}": "1",
		"expr {1 && 2 && 3}":      "1",
		"expr {0 || 0 || 5}":      "1",
		"expr {(0 && 1/0) || 7}":  "1",
	}
	for src, want := range cases {
		if got := evalOK(t, in, src); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
	// Side effects in the dead arm must not run.
	evalOK(t, in, "set cnt 0")
	evalOK(t, in, "expr {0 && [incr cnt]}")
	if got := evalOK(t, in, "set cnt"); got != "0" {
		t.Errorf("dead arm executed: cnt = %q", got)
	}
	// And the live arm does run.
	evalOK(t, in, "expr {1 && [incr cnt]}")
	if got := evalOK(t, in, "set cnt"); got != "1" {
		t.Errorf("live arm skipped: cnt = %q", got)
	}
}

func TestExprErrors(t *testing.T) {
	in := newInterp(t)
	for _, src := range []string{
		"expr {1 / 0}",
		"expr {1 % 0}",
		"expr {1 +}",
		"expr {(1}",
		"expr {$missing}",
		"expr {@}",
		"expr {1 2}",
	} {
		if _, _, err := in.eval(src); err == nil {
			t.Errorf("%q succeeded", src)
		}
	}
}

func TestProcScoping(t *testing.T) {
	in := newInterp(t)
	evalOK(t, in, `
		set g 100
		proc f {a} {
			set local [expr {$a * 2}]
			return $local
		}
	`)
	if got := evalOK(t, in, "f 21"); got != "42" {
		t.Fatalf("f 21 = %q", got)
	}
	// Proc frames are isolated: local must not leak, global not visible.
	if _, _, err := in.eval("set local"); err == nil {
		t.Error("proc local leaked into global frame")
	}
	evalOK(t, in, `proc g2 {} { return [set g] }`)
	if _, _, err := in.eval("g2"); err == nil {
		t.Error("global visible inside proc (Tcl procs see only locals)")
	}
}

func TestGlobalCommand(t *testing.T) {
	in := newInterp(t)
	evalOK(t, in, `
		set counter 10
		proc bump {by} {
			global counter
			set counter [expr {$counter + $by}]
			return $counter
		}
		proc peek {} {
			global counter
			return $counter
		}
	`)
	if got := evalOK(t, in, "bump 5"); got != "15" {
		t.Fatalf("bump = %q", got)
	}
	if got := evalOK(t, in, "set counter"); got != "15" {
		t.Fatalf("global not written back: %q", got)
	}
	if got := evalOK(t, in, "peek"); got != "15" {
		t.Fatalf("peek = %q", got)
	}
	// global of an unset name links without creating a value...
	evalOK(t, in, `proc mk {} { global fresh; set fresh 7; return 0 }`)
	evalOK(t, in, "mk")
	if got := evalOK(t, in, "set fresh"); got != "7" {
		t.Fatalf("fresh = %q", got)
	}
	// ...and global at global level is a harmless no-op.
	evalOK(t, in, "global counter")
	// wrong arity errors
	if _, _, err := in.eval("global"); err == nil {
		t.Error("bare global accepted")
	}
}

func TestWhileBreakContinue(t *testing.T) {
	in := newInterp(t)
	got := evalOK(t, in, `
		set sum 0
		set i 0
		while {$i < 100} {
			incr i
			if {$i % 2 == 0} { continue }
			if {$i > 10} { break }
			set sum [expr {$sum + $i}]
		}
		set sum
	`)
	if got != "25" { // 1+3+5+7+9
		t.Fatalf("sum = %q", got)
	}
}

func TestIfElseifElse(t *testing.T) {
	in := newInterp(t)
	evalOK(t, in, `proc classify {n} {
		if {$n == 0} { return zero } elseif {$n < 10} { return small } else { return big }
	}`)
	for arg, want := range map[string]string{"0": "zero", "5": "small", "99": "big"} {
		if got := evalOK(t, in, "classify "+arg); got != want {
			t.Errorf("classify %s = %q, want %q", arg, got, want)
		}
	}
}

func TestInvoke(t *testing.T) {
	in := newInterp(t)
	if err := in.Load(`proc add3 {a b c} { return [expr {$a + $b + $c}] }`); err != nil {
		t.Fatal(err)
	}
	v, err := in.Invoke("add3", 1, 2, 3)
	if err != nil || v != 6 {
		t.Fatalf("Invoke = %d, %v", v, err)
	}
	if _, err := in.Invoke("nosuch"); err == nil {
		t.Error("missing proc accepted")
	}
	if _, err := in.Invoke("add3", 1); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestMemoryCommands(t *testing.T) {
	in := newInterp(t)
	evalOK(t, in, "st32 256 0x01020304")
	if got := evalOK(t, in, "ld32 256"); got != "16909060" {
		t.Fatalf("ld32 = %q", got)
	}
	if got := evalOK(t, in, "ld8 256"); got != "4" { // little-endian low byte
		t.Fatalf("ld8 = %q", got)
	}
	evalOK(t, in, "st8 300 255")
	if got := evalOK(t, in, "ld8 300"); got != "255" {
		t.Fatalf("st8/ld8 = %q", got)
	}
	if got := evalOK(t, in, "memsize"); got != "4096" {
		t.Fatalf("memsize = %q", got)
	}
	// Bounds are enforced.
	_, _, err := in.eval("ld32 5000")
	var trap *mem.Trap
	if !errors.As(err, &trap) || trap.Kind != mem.TrapOOBLoad {
		t.Fatalf("oob load: %v", err)
	}
}

func TestSandboxPolicyMasksScriptAccesses(t *testing.T) {
	in := New(mem.New(1<<12), mem.Config{Policy: mem.PolicySandbox})
	evalOK(t, in, "st32 4100 77") // masks to 4
	if got := evalOK(t, in, "ld32 4"); got != "77" {
		t.Fatalf("masked store landed at %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	in := newInterp(t)
	for _, src := range []string{
		"set x {unclosed",
		`set x "unclosed`,
		"set x [unclosed",
		"set x ${unclosed",
		"nosuchcommand",
		"set",
		"while {1}",
		"proc p {x}",
		"if {1}",
	} {
		if _, _, err := in.eval(src); err == nil {
			t.Errorf("%q succeeded", src)
		}
	}
}

func TestBreakOutsideLoopIsError(t *testing.T) {
	in := newInterp(t)
	if err := in.Load(`proc p {} { break }`); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Invoke("p"); err == nil || !strings.Contains(err.Error(), "outside of a loop") {
		t.Fatalf("err = %v", err)
	}
}

func TestNumericForms(t *testing.T) {
	in := newInterp(t)
	if got := evalOK(t, in, "expr {0xff}"); got != "255" {
		t.Fatalf("hex = %q", got)
	}
	if _, _, err := in.eval("incr missing 2"); err == nil {
		t.Error("incr of unset variable succeeded")
	}
	evalOK(t, in, "set n 5")
	if got := evalOK(t, in, "incr n"); got != "6" {
		t.Fatalf("incr = %q", got)
	}
	if got := evalOK(t, in, "incr n 10"); got != "16" {
		t.Fatalf("incr n 10 = %q", got)
	}
}

func TestEscapes(t *testing.T) {
	in := newInterp(t)
	if got := evalOK(t, in, `set x "a\tb\nc\\d\$e"`); got != "a\tb\nc\\d$e" {
		t.Fatalf("escapes = %q", got)
	}
}

func TestDeepRecursionBounded(t *testing.T) {
	in := newInterp(t)
	if err := in.Load(`proc r {} { r }`); err != nil {
		t.Fatal(err)
	}
	_, err := in.Invoke("r")
	var trap *mem.Trap
	if !errors.As(err, &trap) || trap.Kind != mem.TrapStackOverflow {
		t.Fatalf("err = %v", err)
	}
}

// TestNestingBounded: the nesting that recurses before any command is
// charged — expr parentheses, unary operators and [command]
// substitution — is refused past MaxNesting with ErrNesting, with fuel
// set and in bounded time, and the next call starts from zero.
func TestNestingBounded(t *testing.T) {
	nest := func(open, inner, close string, n int) string {
		return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
	}
	for _, tc := range []struct {
		name, body string
	}{
		{"2M parentheses", "return [expr {" + nest("(", "1", ")", 2_000_000) + "}]"},
		{"2000 unary operators", "return [expr {" + nest("-", "1", "", 2000) + "}]"},
		{"2000 substitutions", "return " + nest("[set x ", "1", "]", 2000)},
		{"50000 substitutions", "return " + nest("[set x ", "1", "]", 50_000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := newInterp(t)
			in.Fuel = 1000
			if err := in.Load("proc main {} {" + tc.body + "}\nproc ok {} { return [expr {(7)}] }"); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err := in.Invoke("main")
			if !errors.Is(err, ErrNesting) {
				t.Fatalf("err = %v, want ErrNesting", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("refusal took %v", d)
			}
			if v, err := in.Invoke("ok"); err != nil || v != 7 {
				t.Errorf("call after the refusal = %d, %v; want 7", v, err)
			}
		})
	}
}

// doublingLoop doubles a string until something stops it: fuel is
// charged per command, so only the value cap bounds its memory.
const doublingLoop = "proc main {} { set x a; while {1} { set x $x$x } }"

// TestValueSizeBounded: a doubling loop with a budget that admits
// gigabytes is refused at MaxValueBytes, quickly and in bounded memory,
// with and without the parse cache.
func TestValueSizeBounded(t *testing.T) {
	for _, cache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%t", cache), func(t *testing.T) {
			in := newInterp(t)
			in.Fuel = 65536
			in.CacheParse = cache
			if err := in.Load(doublingLoop); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			_, err := in.Invoke("main")
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrValueSize) {
				t.Fatalf("err = %v, want ErrValueSize", err)
			}
			if d > time.Second {
				t.Errorf("refusal took %v", d)
			}
			if b := after.TotalAlloc - before.TotalAlloc; b > 64<<20 {
				t.Errorf("refusal allocated %d MB", b>>20)
			}
		})
	}
}

func TestNestingJustUnderBoundEvaluates(t *testing.T) {
	in := newInterp(t)
	in.Fuel = 1000
	src := "proc main {} { return [expr {" + strings.Repeat("(", 998) + "5" + strings.Repeat(")", 998) + "}] }"
	if err := in.Load(src); err != nil {
		t.Fatal(err)
	}
	if v, err := in.Invoke("main"); err != nil || v != 5 {
		t.Fatalf("998 nested parentheses = %d, %v; want 5", v, err)
	}
}
