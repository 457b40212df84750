package bytecode

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// mkFunc builds a minimal valid function returning a constant.
func mkFunc(name string) *Func {
	return &Func{
		Name:    name,
		NArgs:   0,
		NLocals: 0,
		Code: []Instr{
			{Op: OpConst, A: 7},
			{Op: OpRet},
		},
	}
}

func mkModule(funcs ...*Func) *Module {
	m := &Module{Funcs: funcs}
	m.Index()
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := mkModule(
		&Func{Name: "f", NArgs: 2, NLocals: 3, Code: []Instr{
			{Op: OpLocalGet, A: 0},
			{Op: OpLocalGet, A: 1},
			{Op: OpAdd},
			{Op: OpRet},
		}},
		mkFunc("g"),
	)
	b := Encode(m)
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Funcs) != 2 {
		t.Fatalf("got %d funcs", len(got.Funcs))
	}
	f := got.Func("f")
	if f == nil || f.NArgs != 2 || f.NLocals != 3 || len(f.Code) != 4 {
		t.Fatalf("f = %+v", f)
	}
	for i, in := range f.Code {
		if in != m.Funcs[0].Code[i] {
			t.Errorf("instr %d: got %v want %v", i, in, m.Funcs[0].Code[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("GBC"),
		[]byte("XXXX\x00\x00\x00\x00"),
		[]byte("GBC1"),                 // truncated count
		[]byte("GBC1\x01\x00\x00\x00"), // one func, no body
		append(Encode(mkModule(mkFunc("f"))), 0xFF), // trailing byte
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d: Decode accepted garbage", i)
		} else if !errors.Is(err, ErrBadModule) {
			t.Errorf("case %d: error %v is not ErrBadModule", i, err)
		}
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	// A module claiming 2^31 functions must be rejected before allocation.
	b := []byte("GBC1")
	b = append(b, 0x00, 0x00, 0x00, 0x80)
	if _, err := Decode(b); err == nil {
		t.Fatal("accepted absurd function count")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	// Property: any module we can construct from valid fields round-trips.
	f := func(name string, nargs8 uint8, extra uint8, consts []uint32) bool {
		if len(name) > 64 {
			name = name[:64]
		}
		nargs := int(nargs8 % 8)
		fn := &Func{Name: name, NArgs: nargs, NLocals: nargs + int(extra%8)}
		for _, c := range consts {
			fn.Code = append(fn.Code, Instr{Op: OpConst, A: c})
			fn.Code = append(fn.Code, Instr{Op: OpDrop})
		}
		fn.Code = append(fn.Code, Instr{Op: OpConst, A: 1}, Instr{Op: OpRet})
		m := mkModule(fn)
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		g := got.Funcs[0]
		if g.Name != name || g.NArgs != fn.NArgs || g.NLocals != fn.NLocals || len(g.Code) != len(fn.Code) {
			return false
		}
		for i := range g.Code {
			if g.Code[i] != fn.Code[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyAcceptsGoodCode(t *testing.T) {
	m := mkModule(
		&Func{Name: "abs-diff", NArgs: 2, NLocals: 2, Code: []Instr{
			{Op: OpLocalGet, A: 0},
			{Op: OpLocalGet, A: 1},
			{Op: OpLtU},
			{Op: OpJz, A: 8},
			{Op: OpLocalGet, A: 1},
			{Op: OpLocalGet, A: 0},
			{Op: OpSub},
			{Op: OpRet},
			{Op: OpLocalGet, A: 0},
			{Op: OpLocalGet, A: 1},
			{Op: OpSub},
			{Op: OpRet},
		}},
	)
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejections(t *testing.T) {
	cases := []struct {
		name string
		fn   *Func
		want string
	}{
		{
			"empty body",
			&Func{Name: "f", Code: nil},
			"empty function",
		},
		{
			"args exceed locals",
			&Func{Name: "f", NArgs: 3, NLocals: 1, Code: []Instr{{Op: OpConst}, {Op: OpRet}}},
			"NArgs",
		},
		{
			"bad opcode",
			&Func{Name: "f", Code: []Instr{{Op: Op(200)}, {Op: OpRet}}},
			"undefined opcode",
		},
		{
			"stack underflow",
			&Func{Name: "f", Code: []Instr{{Op: OpAdd}, {Op: OpRet}}},
			"underflow",
		},
		{
			"ret without value",
			&Func{Name: "f", Code: []Instr{{Op: OpRet}}},
			"underflow",
		},
		{
			"jump out of range",
			&Func{Name: "f", Code: []Instr{{Op: OpJmp, A: 99}, {Op: OpConst}, {Op: OpRet}}},
			"out of range",
		},
		{
			"falls off end",
			&Func{Name: "f", Code: []Instr{{Op: OpConst, A: 1}}},
			"falls off end",
		},
		{
			"oob local",
			&Func{Name: "f", NLocals: 1, Code: []Instr{{Op: OpLocalGet, A: 5}, {Op: OpRet}}},
			"local slot",
		},
		{
			"oob call",
			&Func{Name: "f", Code: []Instr{{Op: OpCall, A: 9}, {Op: OpRet}}},
			"undefined function index",
		},
		{
			"inconsistent join",
			&Func{Name: "f", Code: []Instr{
				{Op: OpConst, A: 1}, // depth 1
				{Op: OpJz, A: 0},    // pop -> jump to 0 expects depth 0, but falls to 2 with depth 0; target 0 already depth 0: ok... make a real conflict:
				{Op: OpConst, A: 1},
				{Op: OpConst, A: 1},
				{Op: OpJz, A: 0}, // jump to 0 with depth 1 conflicts with recorded depth 0
				{Op: OpRet},
			}},
			"inconsistent stack depth",
		},
	}
	for _, c := range cases {
		m := mkModule(c.fn)
		err := Verify(m)
		if err == nil {
			t.Errorf("%s: verification passed, want failure", c.name)
			continue
		}
		if !errors.Is(err, ErrVerify) {
			t.Errorf("%s: error %v is not ErrVerify", c.name, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want substring %q", c.name, err, c.want)
		}
	}
}

func TestVerifyCallStackEffect(t *testing.T) {
	callee := &Func{Name: "two-args", NArgs: 2, NLocals: 2, Code: []Instr{
		{Op: OpConst, A: 0}, {Op: OpRet},
	}}
	// Caller pushes only one argument: underflow at the call.
	caller := &Func{Name: "caller", Code: []Instr{
		{Op: OpConst, A: 1},
		{Op: OpCall, A: 0},
		{Op: OpRet},
	}}
	m := mkModule(callee, caller)
	if err := Verify(m); err == nil {
		t.Fatal("call with missing argument verified")
	}
	// With both arguments it verifies.
	caller.Code = []Instr{
		{Op: OpConst, A: 1},
		{Op: OpConst, A: 2},
		{Op: OpCall, A: 0},
		{Op: OpRet},
	}
	if err := Verify(mkModule(callee, caller)); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyLinearTime(t *testing.T) {
	// A long straight-line function verifies; guards against the worklist
	// revisiting instructions superlinearly.
	fn := &Func{Name: "long"}
	for i := 0; i < 100000; i++ {
		fn.Code = append(fn.Code, Instr{Op: OpConst, A: uint32(i)}, Instr{Op: OpDrop})
	}
	fn.Code = append(fn.Code, Instr{Op: OpConst, A: 1}, Instr{Op: OpRet})
	if err := Verify(mkModule(fn)); err != nil {
		t.Fatal(err)
	}
}

func TestMaxStack(t *testing.T) {
	m := mkModule(&Func{Name: "f", Code: []Instr{
		{Op: OpConst, A: 1},
		{Op: OpConst, A: 2},
		{Op: OpConst, A: 3},
		{Op: OpAdd},
		{Op: OpAdd},
		{Op: OpRet},
	}})
	shapes, err := VerifyShapes(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := shapes[0].MaxStack; got != 3 {
		t.Fatalf("MaxStack = %d, want 3", got)
	}
	if want := []int{0, 1, 2, 3, 2, 1}; fmt.Sprint(shapes[0].Depths) != fmt.Sprint(want) {
		t.Fatalf("Depths = %v, want %v", shapes[0].Depths, want)
	}
}

func TestDisassembleMentionsEveryOp(t *testing.T) {
	m := mkModule(
		mkFunc("callee"),
		&Func{Name: "f", NArgs: 0, NLocals: 1, Code: []Instr{
			{Op: OpConst, A: 42},
			{Op: OpLocalSet, A: 0},
			{Op: OpLocalGet, A: 0},
			{Op: OpJz, A: 5},
			{Op: OpJmp, A: 5},
			{Op: OpCall, A: 0},
			{Op: OpRet},
		}},
	)
	text := Disassemble(m)
	for _, want := range []string{"func f", "const", "local.set", "jz", "-> 5", "call", "; callee", "ret"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly lacks %q:\n%s", want, text)
		}
	}
}

func TestOpStrings(t *testing.T) {
	if OpAdd.String() != "add" || Op(250).String() == "add" {
		t.Error("Op.String broken")
	}
	if !OpConst.HasOperand() || OpAdd.HasOperand() {
		t.Error("HasOperand broken")
	}
}
