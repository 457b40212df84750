package hipec

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses the assembler-like surface syntax HiPEC's description
// implies: one instruction per line, labels as jump targets, `;` comments.
//
//	; accept the kernel candidate unless it is on the hot list
//	loop:
//	    ldw  r2, [r1+0]
//	    jeq  r2, r0, found
//	    ldw  r1, [r1+4]
//	    movi r3, 0
//	    jne  r1, r3, loop
//	    movi r2, 0
//	found:
//	    ret  r2
//
// Registers are r0..r15; immediates are decimal or 0x-hex; loads take
// [rN+imm] (imm optional).
func Assemble(src string) (*Program, error) {
	type pending struct {
		pc    int
		label string
		line  int
	}
	var code []Instr
	labels := make(map[string]int)
	var fixups []pending

	for lineno, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels, possibly followed by an instruction on the same line.
		for {
			if i := strings.IndexByte(line, ':'); i >= 0 && !strings.ContainsAny(line[:i], " \t,") {
				name := line[:i]
				if _, dup := labels[name]; dup {
					return nil, fmt.Errorf("hipec: line %d: duplicate label %q", lineno+1, name)
				}
				labels[name] = len(code)
				line = strings.TrimSpace(line[i+1:])
				continue
			}
			break
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(fields) == 0 {
			return nil, fmt.Errorf("hipec: line %d: operands without an opcode", lineno+1)
		}
		opName := fields[0]
		args := fields[1:]
		in, lbl, err := assembleOne(opName, args)
		if err != nil {
			return nil, fmt.Errorf("hipec: line %d: %w", lineno+1, err)
		}
		if lbl != "" {
			fixups = append(fixups, pending{pc: len(code), label: lbl, line: lineno + 1})
		}
		code = append(code, in)
	}
	for _, f := range fixups {
		target, ok := labels[f.label]
		if !ok {
			return nil, fmt.Errorf("hipec: line %d: undefined label %q", f.line, f.label)
		}
		code[f.pc].Imm = uint32(target)
	}
	return New(code)
}

// MustAssemble panics on error; for compiled-in programs.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op := Op(0); op < numOps; op++ {
		m[op.String()] = op
	}
	return m
}()

func assembleOne(opName string, args []string) (Instr, string, error) {
	op, ok := opByName[opName]
	if !ok {
		return Instr{}, "", fmt.Errorf("unknown opcode %q", opName)
	}
	in := Instr{Op: op}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d operand(s), got %d", opName, n, len(args))
		}
		return nil
	}
	switch op {
	case MOVI:
		if err := need(2); err != nil {
			return in, "", err
		}
		r, err := parseReg(args[0])
		if err != nil {
			return in, "", err
		}
		imm, err := parseImm(args[1])
		if err != nil {
			return in, "", err
		}
		in.A, in.Imm = r, imm
	case MOV:
		if err := need(2); err != nil {
			return in, "", err
		}
		a, err := parseReg(args[0])
		if err != nil {
			return in, "", err
		}
		b, err := parseReg(args[1])
		if err != nil {
			return in, "", err
		}
		in.A, in.B = a, b
	case LDW, LDB:
		if err := need(2); err != nil {
			return in, "", err
		}
		a, err := parseReg(args[0])
		if err != nil {
			return in, "", err
		}
		base, off, err := parseMem(args[1])
		if err != nil {
			return in, "", err
		}
		in.A, in.B, in.Imm = a, base, off
	case ADD, SUB, AND, OR, XOR, SHL, SHR, MUL:
		if err := need(3); err != nil {
			return in, "", err
		}
		a, err := parseReg(args[0])
		if err != nil {
			return in, "", err
		}
		b, err := parseReg(args[1])
		if err != nil {
			return in, "", err
		}
		c, err := parseReg(args[2])
		if err != nil {
			return in, "", err
		}
		in.A, in.B, in.C = a, b, c
	case ADDI:
		if err := need(3); err != nil {
			return in, "", err
		}
		a, err := parseReg(args[0])
		if err != nil {
			return in, "", err
		}
		b, err := parseReg(args[1])
		if err != nil {
			return in, "", err
		}
		imm, err := parseImm(args[2])
		if err != nil {
			return in, "", err
		}
		in.A, in.B, in.Imm = a, b, imm
	case JMP:
		if err := need(1); err != nil {
			return in, "", err
		}
		// Numeric targets (as the disassembler prints) or labels.
		if imm, err := parseImm(args[0]); err == nil {
			in.Imm = imm
			return in, "", nil
		}
		return in, args[0], nil
	case JEQ, JNE, JLT, JGE:
		if err := need(3); err != nil {
			return in, "", err
		}
		a, err := parseReg(args[0])
		if err != nil {
			return in, "", err
		}
		b, err := parseReg(args[1])
		if err != nil {
			return in, "", err
		}
		in.A, in.B = a, b
		if imm, err := parseImm(args[2]); err == nil {
			in.Imm = imm
			return in, "", nil
		}
		return in, args[2], nil
	case RET:
		if err := need(1); err != nil {
			return in, "", err
		}
		a, err := parseReg(args[0])
		if err != nil {
			return in, "", err
		}
		in.A = a
	}
	return in, "", nil
}

func parseReg(s string) (uint8, error) {
	if len(s) < 2 || s[0] != 'r' {
		return 0, fmt.Errorf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func parseImm(s string) (uint32, error) {
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return uint32(v), nil
}

// parseMem parses [rN] or [rN+imm].
func parseMem(s string) (uint8, uint32, error) {
	if len(s) < 4 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, fmt.Errorf("expected [reg+off], got %q", s)
	}
	inner := s[1 : len(s)-1]
	reg := inner
	off := uint32(0)
	if i := strings.IndexByte(inner, '+'); i >= 0 {
		reg = inner[:i]
		v, err := parseImm(inner[i+1:])
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	r, err := parseReg(reg)
	if err != nil {
		return 0, 0, err
	}
	return r, off, nil
}

// Disassemble renders a program back to assembler text.
func Disassemble(p *Program) string {
	var b strings.Builder
	for pc, in := range p.Code {
		fmt.Fprintf(&b, "%4d: ", pc)
		switch in.Op {
		case MOVI:
			fmt.Fprintf(&b, "movi r%d, %d", in.A, in.Imm)
		case MOV:
			fmt.Fprintf(&b, "mov r%d, r%d", in.A, in.B)
		case LDW, LDB:
			fmt.Fprintf(&b, "%s r%d, [r%d+%d]", in.Op, in.A, in.B, in.Imm)
		case ADDI:
			fmt.Fprintf(&b, "addi r%d, r%d, %d", in.A, in.B, in.Imm)
		case JMP:
			fmt.Fprintf(&b, "jmp %d", in.Imm)
		case JEQ, JNE, JLT, JGE:
			fmt.Fprintf(&b, "%s r%d, r%d, %d", in.Op, in.A, in.B, in.Imm)
		case RET:
			fmt.Fprintf(&b, "ret r%d", in.A)
		default:
			fmt.Fprintf(&b, "%s r%d, r%d, r%d", in.Op, in.A, in.B, in.C)
		}
		b.WriteString("\n")
	}
	return b.String()
}
