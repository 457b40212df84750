package gel

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := ParseAndCheck(src)
	if err != nil {
		t.Fatalf("ParseAndCheck(%q): %v", src, err)
	}
	return p
}

func TestParseEmptyFunc(t *testing.T) {
	p := mustParse(t, "func main() {}")
	if len(p.Funcs) != 1 || p.Funcs[0].Name != "main" {
		t.Fatalf("bad program: %+v", p)
	}
	if p.Func("main") == nil || p.Func("nope") != nil {
		t.Error("Func lookup broken")
	}
}

func TestParseParams(t *testing.T) {
	p := mustParse(t, "func f(a, b, c) { return a; }")
	fd := p.Func("f")
	if len(fd.Params) != 3 {
		t.Fatalf("params = %v", fd.Params)
	}
	if fd.NLocals != 3 {
		t.Errorf("NLocals = %d, want 3", fd.NLocals)
	}
}

func TestParseLocals(t *testing.T) {
	p := mustParse(t, `func f(a) {
		var x = 1;
		if (a) { var y = 2; x = y; }
		while (x) { var z = 3; x = x - z; }
		return x;
	}`)
	fd := p.Func("f")
	// a, x, y, z — block scoping allocates fresh slots, no reuse.
	if fd.NLocals != 4 {
		t.Errorf("NLocals = %d, want 4", fd.NLocals)
	}
}

func TestParseShadowing(t *testing.T) {
	mustParse(t, `func f(x) {
		var y = x;
		if (y) { var x = 2; y = x; }
		return y;
	}`)
}

func TestParsePrecedence(t *testing.T) {
	p := mustParse(t, "func f() { return 1 + 2 * 3; }")
	ret := p.Func("f").Body.Stmts[0].(*Return)
	bin := ret.Val.(*Binary)
	if bin.Op != BAdd {
		t.Fatalf("top op = %s, want +", bin.Op)
	}
	if inner, ok := bin.Y.(*Binary); !ok || inner.Op != BMul {
		t.Fatalf("rhs = %#v, want 2*3", bin.Y)
	}
}

func TestParseLeftAssociativity(t *testing.T) {
	p := mustParse(t, "func f() { return 10 - 3 - 2; }")
	ret := p.Func("f").Body.Stmts[0].(*Return)
	bin := ret.Val.(*Binary)
	if bin.Op != BSub {
		t.Fatalf("top op = %s", bin.Op)
	}
	if inner, ok := bin.X.(*Binary); !ok || inner.Op != BSub {
		t.Fatalf("lhs = %#v, want (10-3)", bin.X)
	}
}

func TestParseElseIfChain(t *testing.T) {
	p := mustParse(t, `func f(a) {
		if (a == 1) { return 10; }
		else if (a == 2) { return 20; }
		else { return 30; }
	}`)
	ifs := p.Func("f").Body.Stmts[0].(*If)
	if _, ok := ifs.Else.(*If); !ok {
		t.Fatalf("else branch = %T, want *If", ifs.Else)
	}
}

func TestParseCallsAndBuiltins(t *testing.T) {
	p := mustParse(t, `
		func helper(a, b) { return a ^ b; }
		func main() { return helper(ld32(0), rotl(5, 2)); }
	`)
	ret := p.Func("main").Body.Stmts[0].(*Return)
	call := ret.Val.(*Call)
	if call.FuncIdx != 0 || call.Builtin != NotBuiltin {
		t.Fatalf("call = %+v", call)
	}
	arg0 := call.Args[0].(*Call)
	if arg0.Builtin != BILd32 {
		t.Fatalf("arg0 builtin = %v", arg0.Builtin)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"func f( { }", "expected"},
		{"func f() { var = 1; }", "expected identifier"},
		{"func f() { return 1 }", "expected ;"},
		{"func f() { if 1 { } }", "expected ("},
		{"func f() { x = 1; }", "undeclared"},
		{"func f() { return y; }", "undeclared"},
		{"func f() { break; }", "break outside loop"},
		{"func f() { continue; }", "continue outside loop"},
		{"func f() { return g(); }", "undefined function"},
		{"func f() {} func f() {}", "redeclared"},
		{"func ld32() {}", "shadows a builtin"},
		{"func f(a, a) {}", "duplicate parameter"},
		{"func f() { var x = 1; var x = 2; }", "redeclared in this scope"},
		{"func f() { return ld32(); }", "takes 1 argument"},
		{"func f() { return rotl(1); }", "takes 2 argument"},
		{"func g(a) {} func f() { return g(); }", "takes 1 argument"},
		{"func f() { return (1; }", "expected )"},
		{"func f() { return 1 +; }", "expected expression"},
		{"xyz", "expected func"},
		{"func f() {", "unexpected end of file"},
	}
	for _, c := range cases {
		_, err := ParseAndCheck(c.src)
		if err == nil {
			t.Errorf("ParseAndCheck(%q): expected error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseAndCheck(%q) error = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := ParseAndCheck("func f() {\n  return q;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error %q lacks line 2 position", err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad source")
		}
	}()
	MustParse("not a program")
}

func TestParseExprStatementForms(t *testing.T) {
	mustParse(t, `func f() {
		st32(0, 1);
		abort(2);
		1 + 2;
	}`)
}

func TestParseAssignVsExprStmtDisambiguation(t *testing.T) {
	p := mustParse(t, `func g(a) { return a; }
	func f() {
		var x = 0;
		x = g(1);
		g(x);
	}`)
	stmts := p.Func("f").Body.Stmts
	if _, ok := stmts[1].(*Assign); !ok {
		t.Errorf("stmt 1 = %T, want *Assign", stmts[1])
	}
	if _, ok := stmts[2].(*ExprStmt); !ok {
		t.Errorf("stmt 2 = %T, want *ExprStmt", stmts[2])
	}
}

func TestNestedBlocksScope(t *testing.T) {
	_, err := ParseAndCheck(`func f() {
		{ var x = 1; x = 2; }
		return x;
	}`)
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("expected out-of-scope error, got %v", err)
	}
}

// TestNestingLimit: source nested past MaxNesting — the 8 MB
// parenthesis probe, unary and call chains, a left-associative operator
// chain, nested blocks and nested ifs — is refused with ErrNesting in
// bounded time instead of overflowing the goroutine stack in the parser
// or in the passes that recurse over its tree. Programs well inside the
// limit still parse, check and fold.
func TestNestingLimit(t *testing.T) {
	const n = 4 << 20 // 4M levels: 8 MB of parentheses
	deep := map[string]string{
		"parens": "func main(a) { return " + strings.Repeat("(", n) + "a" + strings.Repeat(")", n) + "; }",
		"unary":  "func main(a) { return " + strings.Repeat("-", n) + "a; }",
		"calls":  "func f(x) { return x; } func main(a) { return " + strings.Repeat("f(", n) + "a" + strings.Repeat(")", n) + "; }",
		"chain":  "func main(a) { return a" + strings.Repeat("+a", n) + "; }",
		"blocks": "func main(a) { " + strings.Repeat("{", n) + strings.Repeat("}", n) + " return a; }",
		"ifs":    "func main(a) { " + strings.Repeat("if (a) {", n/8) + strings.Repeat("}", n/8) + " return a; }",
		"elseif": "func main(a) { if (a) { }" + strings.Repeat(" else if (a) { }", n/16) + " return a; }",
	}
	for name, src := range deep {
		start := time.Now()
		_, err := ParseAndCheck(src)
		if !errors.Is(err, ErrNesting) {
			t.Errorf("%s: err = %v, want ErrNesting", name, err)
		}
		var ge *Error
		if !errors.As(err, &ge) {
			t.Errorf("%s: err %T is not a *gel.Error", name, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s: refusal took %v", name, d)
		}
	}

	const ok = MaxNesting / 4
	fine := []string{
		"func main(a) { return " + strings.Repeat("(", ok) + "a" + strings.Repeat(")", ok) + "; }",
		"func main(a) { return a" + strings.Repeat("+a", ok) + "; }",
		"func main(a) { " + strings.Repeat("{", ok) + strings.Repeat("}", ok) + " return a; }",
		"func main(a) { return " + strings.Repeat("-", ok) + "a; }",
	}
	for _, src := range fine {
		p, err := ParseAndCheck(src)
		if err != nil {
			t.Fatalf("nesting %d refused: %v", ok, err)
		}
		Fold(p)
	}
}
