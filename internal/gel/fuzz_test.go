package gel

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParserNeverPanics feeds the front end garbage: random bytes, random
// token soup, and truncations of valid programs. Errors are expected;
// panics are not — a kernel accepting graft source from applications
// cannot afford a parser crash.
func TestParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))

	check := func(src string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("parser panicked on %q: %v", src, r)
			}
		}()
		ParseAndCheck(src) //nolint:errcheck // errors are fine
	}

	// Random bytes.
	for i := 0; i < 2000; i++ {
		n := rng.Intn(80)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		check(string(b))
	}

	// Token soup: valid lexemes in random order.
	lexemes := []string{
		"func", "var", "if", "else", "while", "break", "continue", "return",
		"main", "x", "ld32", "st32", "42", "0xFF",
		"(", ")", "{", "}", ",", ";", "=", "+", "-", "*", "/", "%",
		"&", "|", "^", "~", "!", "<<", ">>", "==", "!=", "<", "<=", ">",
		">=", "&&", "||",
	}
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		n := rng.Intn(40)
		for j := 0; j < n; j++ {
			sb.WriteString(lexemes[rng.Intn(len(lexemes))])
			sb.WriteString(" ")
		}
		check(sb.String())
	}

	// Truncations of a valid program.
	valid := `func helper(a) { return a * 2; }
func main(n) {
	var x = 0;
	while (n > 0) {
		if (n % 2 == 0) { x = x + helper(n); } else { x = x - 1; }
		n = n - 1;
	}
	return x ^ rotl(x, 3);
}`
	for i := 0; i < len(valid); i++ {
		check(valid[:i])
	}
}

// FuzzParse is the native-fuzzing version of the hammer above, run
// continuously by `go test -fuzz=FuzzParse`: arbitrary input must never
// panic the front end, and any program that parses and checks must
// survive folding and print back to a form the parser and checker still
// accept. Seeds live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"func main(a, b) { return a + b; }",
		"func f(n) { if (n == 0) { return 0; } return n + f(n - 1); }",
		"func main(a) { var i = 0; while (i < a) { st32(4096 + i * 4, i); i = i + 1; } return ld32(4096); }",
		"func main() { abort(3); return 0; }",
		"func main(a) { return ~(a) ^ -(a) + !(a); }",
		"func broken(a { return; }",
		"}{!!",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Nested past MaxNesting: the parser must refuse, not recurse on.
	deep := 2 * MaxNesting
	f.Add("func main(a) { return " + strings.Repeat("(", deep) + "a" + strings.Repeat(")", deep) + "; }")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		if err := Check(p); err != nil {
			return
		}
		Fold(p)
		out := Print(p)
		if _, err := ParseAndCheck(out); err != nil {
			t.Fatalf("printed program no longer parses and checks: %v\n%s", err, out)
		}
	})
}

// TestFoldNeverPanicsOnRandomPrograms folds whatever the random program
// generator in the tech tests would produce, shaped locally.
func TestFoldNeverPanicsOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		src := randomPrintable(rng)
		p, err := ParseAndCheck(src)
		if err != nil {
			t.Fatalf("generator produced invalid source: %v\n%s", err, src)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Fold panicked: %v\n%s", r, src)
				}
			}()
			Fold(p)
		}()
		// Folded output must still check and print.
		printed := Print(p)
		if _, err := ParseAndCheck(printed); err != nil {
			t.Fatalf("folded program no longer parses: %v\n%s", err, printed)
		}
	}
}
