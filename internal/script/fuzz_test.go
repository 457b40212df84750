package script

import (
	"math/rand"
	"strings"
	"testing"

	"graftlab/internal/mem"
)

// TestInterpreterNeverPanics: the script interpreter faces hostile source
// directly (there is no compile step), so no input may panic it.
func TestInterpreterNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))

	check := func(src string) {
		in := New(mem.New(1<<12), mem.Config{Policy: mem.PolicyChecked})
		in.Fuel = 1 << 16
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("interpreter panicked on %q: %v", src, r)
			}
		}()
		in.Load(src) //nolint:errcheck // errors are fine
		in.Invoke("main")
		in.Invoke("main", 1, 2, 3)
	}

	// Random bytes.
	for i := 0; i < 2000; i++ {
		n := rng.Intn(100)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		check(string(b))
	}

	// Word soup from the script vocabulary.
	words := []string{
		"set", "incr", "expr", "if", "while", "proc", "return", "break",
		"continue", "ld32", "st32", "ld8", "st8", "memsize", "abort",
		"$x", "${y}", "{", "}", "[", "]", `"`, ";", "\n", "0xFF", "42",
		"+", "-", "*", "/", "%", "&&", "||", "\\",
	}
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		n := rng.Intn(30)
		for j := 0; j < n; j++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteString(" ")
		}
		check(sb.String())
	}

	// Truncations of a valid graft.
	valid := `proc hot {page} {
	set n [ld32 0x1000]
	while {$n != 0} {
		if {[ld32 $n] == $page} { return 1 }
		set n [ld32 [expr {$n + 4}]]
	}
	return 0
}
proc main {a} { return [hot $a] }`
	for i := 0; i < len(valid); i++ {
		check(valid[:i])
	}
}

// FuzzInterp is the native-fuzzing version of the hammer above, run
// continuously by `go test -fuzz=FuzzInterp`: loading may fail and
// invocation may trap, but nothing may panic or escape the 4 KB memory.
// The fuel budget is what makes fuzzer-found infinite loops terminate.
// Seeds live in testdata/fuzz/FuzzInterp.
func FuzzInterp(f *testing.F) {
	seeds := []string{
		"proc main {a b} { return [expr {$a + $b}] }",
		"proc main {a} { set i 0\nwhile {$i < $a} { st32 [expr {1024 + $i * 4}] $i\nincr i }\nreturn [ld32 1024] }",
		"proc f {n} { if {$n == 0} { return 0 }\nreturn [expr {$n + [f [expr {$n - 1}]]}] }\nproc main {} { return [f 5] }",
		"proc main {} { abort 7 }",
		"proc main {a} { return [expr {$a / 0}] }",
		"proc main {} { return [ld32 999999] }",
		"proc main {} { while {1} { } }",
		doublingLoop,
		"proc {bad",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		in := New(mem.New(1<<12), mem.Config{Policy: mem.PolicyChecked})
		in.Fuel = 10000
		if err := in.Load(src); err != nil {
			return
		}
		_, _ = in.Invoke("main")
		_, _ = in.Invoke("main", 3, 4, 5)
	})
}

// TestExprNeverPanics hammers the expression sub-parser directly.
func TestExprNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	in := New(mem.New(1<<12), mem.Config{Policy: mem.PolicyChecked})
	in.Load("set x 5") //nolint:errcheck
	tokens := []string{
		"$x", "$missing", "1", "0x10", "(", ")", "+", "-", "*", "/", "%",
		"&&", "||", "!", "~", "<<", ">>", "==", "!=", "<", "<=", ">",
		">=", "&", "|", "^", "[set x]", "[bogus]",
	}
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		n := rng.Intn(12)
		for j := 0; j < n; j++ {
			sb.WriteString(tokens[rng.Intn(len(tokens))])
			sb.WriteString(" ")
		}
		src := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("expr panicked on %q: %v", src, r)
				}
			}()
			in.evalExpr(src) //nolint:errcheck
		}()
	}
}
