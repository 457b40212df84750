package aot

// FuzzVerify drives the load-time contract with raw, adversarial
// bytecode rather than compiler output: every input is decoded into a
// bytecode.Func body (most bytes decode to valid opcodes, some to
// garbage), and the property is two-sided —
//
//   - rejection agreement: aot.New (and NewNoElision) accept exactly
//     the modules bytecode.Verify accepts, and surface the verifier's
//     own error otherwise (one taxonomy, not two);
//   - execution agreement: for every accepted module, the translated
//     program's result, trap kind/addr/code, memory image, and fuel
//     accounting equal vm.OptVM's under each supported policy, with
//     elision on and off — so every technology class the translator
//     carries is differentially fuzzed.
//
// Fuel is kept small (2048) so runaway loops the verifier legitimately
// accepts terminate by exhaustion in both engines.

import (
	"fmt"
	"testing"

	"graftlab/internal/bytecode"
	"graftlab/internal/mem"
	"graftlab/internal/vm"
)

const (
	fuzzMemSize = 4096
	fuzzFuel    = 2048
)

// decodeFuzzFunc turns raw fuzz bytes into an instruction body: 3 bytes
// per instruction (opcode, 16-bit operand). Opcodes are taken modulo 64
// so most decode to real operations while a tail of invalid ones keeps
// the rejection side of the property exercised. Operands stay small —
// jump targets and local indices need to land in range sometimes — with
// a high-bit escape widening constants.
func decodeFuzzFunc(data []byte) []bytecode.Instr {
	var code []bytecode.Instr
	for i := 0; i+2 < len(data) && len(code) < 512; i += 3 {
		op := bytecode.Op(data[i] % 64)
		a := uint32(data[i+1]) | uint32(data[i+2])<<8
		if op == bytecode.OpConst && data[i+2]&0x80 != 0 {
			a = a<<16 | a // exercise the full u32 range in address math
		}
		code = append(code, bytecode.Instr{Op: op, A: a})
	}
	return code
}

// fuzzModule wraps a decoded body as "main" next to a fixed helper so
// OpCall has a legal target (index 1); call operands decoded from fuzz
// bytes still reach invalid indices, keeping that rejection path live.
func fuzzModule(body []bytecode.Instr, nlocals int) *bytecode.Module {
	m := &bytecode.Module{Funcs: []*bytecode.Func{
		{Name: "main", NArgs: 2, NLocals: nlocals, Code: body},
		{Name: "h", NArgs: 2, NLocals: 2, Code: []bytecode.Instr{
			{Op: bytecode.OpLocalGet, A: 0},
			{Op: bytecode.OpLocalGet, A: 1},
			{Op: bytecode.OpXor},
			{Op: bytecode.OpConst, A: 1},
			{Op: bytecode.OpAdd},
			{Op: bytecode.OpRet},
		}},
	}}
	m.Index()
	return m
}

func FuzzVerify(f *testing.F) {
	enc := func(ins ...bytecode.Instr) []byte {
		var b []byte
		for _, in := range ins {
			b = append(b, byte(in.Op), byte(in.A), byte(in.A>>8))
		}
		return b
	}
	// Straight-line arithmetic that returns.
	f.Add(enc(
		bytecode.Instr{Op: bytecode.OpLocalGet, A: 0},
		bytecode.Instr{Op: bytecode.OpLocalGet, A: 1},
		bytecode.Instr{Op: bytecode.OpAdd},
		bytecode.Instr{Op: bytecode.OpRet},
	), uint32(3), uint32(4))
	// A provable bounded loop over memory: locals, branch refinement,
	// loads, stores.
	f.Add(enc(
		bytecode.Instr{Op: bytecode.OpLocalGet, A: 0}, // 0: i
		bytecode.Instr{Op: bytecode.OpConst, A: 16},   // 1
		bytecode.Instr{Op: bytecode.OpGeU},            // 2
		bytecode.Instr{Op: bytecode.OpJnz, A: 12},     // 3: exit
		bytecode.Instr{Op: bytecode.OpLocalGet, A: 0}, // 4
		bytecode.Instr{Op: bytecode.OpConst, A: 4},    // 5
		bytecode.Instr{Op: bytecode.OpMul},            // 6
		bytecode.Instr{Op: bytecode.OpLd32},           // 7
		bytecode.Instr{Op: bytecode.OpLocalSet, A: 1}, // 8
		bytecode.Instr{Op: bytecode.OpConst, A: 1},    // 9  (i implicitly reused)
		bytecode.Instr{Op: bytecode.OpLocalSet, A: 0}, // 10
		bytecode.Instr{Op: bytecode.OpJmp, A: 0},      // 11
		bytecode.Instr{Op: bytecode.OpLocalGet, A: 1}, // 12
		bytecode.Instr{Op: bytecode.OpRet},            // 13
	), uint32(0), uint32(0))
	// Division by an argument (possible div-zero trap) plus a call.
	f.Add(enc(
		bytecode.Instr{Op: bytecode.OpLocalGet, A: 0},
		bytecode.Instr{Op: bytecode.OpLocalGet, A: 1},
		bytecode.Instr{Op: bytecode.OpCall, A: 1},
		bytecode.Instr{Op: bytecode.OpLocalGet, A: 1},
		bytecode.Instr{Op: bytecode.OpDivU},
		bytecode.Instr{Op: bytecode.OpRet},
	), uint32(100), uint32(0))
	// Wild store then abort: trap ordering under deferral.
	f.Add(enc(
		bytecode.Instr{Op: bytecode.OpLocalGet, A: 0},
		bytecode.Instr{Op: bytecode.OpLocalGet, A: 1},
		bytecode.Instr{Op: bytecode.OpSt32},
		bytecode.Instr{Op: bytecode.OpConst, A: 7},
		bytecode.Instr{Op: bytecode.OpAbort},
	), uint32(70000), uint32(1))
	// Structurally broken: stack underflow.
	f.Add(enc(
		bytecode.Instr{Op: bytecode.OpAdd},
		bytecode.Instr{Op: bytecode.OpRet},
	), uint32(0), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, a, b uint32) {
		if len(data) == 0 {
			return
		}
		nlocals := 2 + int(data[0]%3)
		body := decodeFuzzFunc(data[1:])
		if len(body) == 0 {
			return
		}
		mod := fuzzModule(body, nlocals)

		verr := bytecode.Verify(mod)
		for _, tl := range translations {
			_, aerr := tl.build(mod, mem.New(fuzzMemSize), mem.Config{Policy: mem.PolicyChecked})
			if (verr == nil) != (aerr == nil) {
				t.Fatalf("rejection disagreement: bytecode.Verify=%v aot %s=%v\n%s", verr, tl.name, aerr, dumpFunc(body))
			}
			if verr != nil && verr.Error() != aerr.Error() {
				t.Fatalf("rejection taxonomy split:\n  bytecode: %v\n  aot %s: %v\n%s", verr, tl.name, aerr, dumpFunc(body))
			}
		}
		if verr != nil {
			return
		}

		for _, pol := range aotPolicies {
			rm := mem.New(fuzzMemSize)
			fillPattern(rm.Data)
			ref, err := vm.NewOpt(mod, rm, pol.cfg, vm.OptConfig{})
			if err != nil {
				t.Fatalf("verified module refused by OptVM: %v", err)
			}
			ref.Fuel = fuzzFuel
			rv, rerr := ref.Invoke("main", a, b)

			for _, tl := range translations {
				am := mem.New(fuzzMemSize)
				fillPattern(am.Data)
				p, err := tl.build(mod, am, pol.cfg)
				if err != nil {
					t.Fatalf("verified module refused by aot (policy %s, %s): %v", pol.name, tl.name, err)
				}
				p.Fuel = fuzzFuel
				av, aerr := p.Invoke("main", a, b)

				rt, _ := rerr.(*mem.Trap)
				at, _ := aerr.(*mem.Trap)
				label := fmt.Sprintf("policy %s %s args (%d,%d)", pol.name, tl.name, a, b)
				switch {
				case rt == nil && at == nil:
					if rv != av {
						t.Fatalf("%s: value ref=%d aot=%d\n%s", label, rv, av, dumpFunc(body))
					}
				case rt == nil || at == nil:
					t.Fatalf("%s: trap ref=%v aot=%v\n%s", label, rerr, aerr, dumpFunc(body))
				case rt.Kind == mem.TrapFuel || at.Kind == mem.TrapFuel:
					if rt.Kind != at.Kind {
						t.Fatalf("%s: fuel divergence ref=%v aot=%v\n%s", label, rt, at, dumpFunc(body))
					}
				default:
					if rt.Kind != at.Kind || rt.PC != at.PC || rt.Addr != at.Addr || rt.Code != at.Code {
						t.Fatalf("%s: trap mismatch ref=%v aot=%v\n%s", label, rt, at, dumpFunc(body))
					}
				}
				if string(rm.Data) != string(am.Data) {
					t.Fatalf("%s: memory diverges\n%s", label, dumpFunc(body))
				}
				if ref.FuelUsed() != p.FuelUsed() {
					t.Fatalf("%s: FuelUsed ref=%d aot=%d\n%s", label, ref.FuelUsed(), p.FuelUsed(), dumpFunc(body))
				}
			}
		}
	})
}

// fillPattern gives both memories the same non-zero image so loads see
// varied data without pulling a RNG into the fuzz body.
func fillPattern(d []byte) {
	for i := range d {
		d[i] = byte(i*7 + i>>8)
	}
}

func dumpFunc(code []bytecode.Instr) string {
	s := ""
	for pc, in := range code {
		s += fmt.Sprintf("  %3d: %v\n", pc, in)
	}
	return s
}
