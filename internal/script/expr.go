package script

import (
	"fmt"
	"strings"

	"graftlab/internal/mem"
)

// evalExpr evaluates a Tcl-style arithmetic expression over u32 with the
// same operator set and precedence as GEL. Like Tcl, the expression string
// is tokenized and parsed from scratch on every evaluation, and $variables
// are resolved against the current frame at parse time.
func (in *Interp) evalExpr(src string) (uint32, error) {
	e := &exprParser{src: src, in: in}
	v, err := e.parseLOr()
	if err != nil {
		return 0, err
	}
	e.skipSpace()
	if !e.eof() {
		return 0, fmt.Errorf("script: expr: trailing garbage %q in %q", e.src[e.off:], src)
	}
	return v, nil
}

type exprParser struct {
	src string
	off int
	in  *Interp
	// skip marks the dead arm of a short-circuited && or ||: the text is
	// still parsed (Tcl syntax-checks both arms) but nothing is
	// evaluated — no variable reads, no command substitution, no
	// division-by-zero errors.
	skip bool
}

func (e *exprParser) eof() bool { return e.off >= len(e.src) }

func (e *exprParser) skipSpace() {
	for !e.eof() {
		c := e.src[e.off]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			e.off++
			continue
		}
		break
	}
}

func (e *exprParser) peekOp(op string) bool {
	e.skipSpace()
	if strings.HasPrefix(e.src[e.off:], op) {
		// Reject "<" matching prefix of "<<" and "<=", etc.
		rest := e.src[e.off+len(op):]
		switch op {
		case "<", ">":
			if strings.HasPrefix(rest, "=") || strings.HasPrefix(rest, op) {
				return false
			}
		case "&":
			if strings.HasPrefix(rest, "&") {
				return false
			}
		case "|":
			if strings.HasPrefix(rest, "|") {
				return false
			}
		case "=":
			return false // only == exists
		case "!":
			if !strings.HasPrefix(rest, "=") {
				return false
			}
		}
		return true
	}
	return false
}

func (e *exprParser) acceptOp(op string) bool {
	if e.peekOp(op) {
		e.off += len(op)
		return true
	}
	return false
}

// Binary levels, loosest to tightest, mirroring GEL.

func (e *exprParser) parseLOr() (uint32, error) {
	x, err := e.parseLAnd()
	if err != nil {
		return 0, err
	}
	for e.acceptOp("||") {
		save := e.skip
		if x != 0 {
			e.skip = true // short-circuit: parse the arm, evaluate nothing
		}
		y, err := e.parseLAnd()
		e.skip = save
		if err != nil {
			return 0, err
		}
		x = b2uScript(x != 0 || y != 0)
	}
	return x, nil
}

func (e *exprParser) parseLAnd() (uint32, error) {
	x, err := e.parseBitOr()
	if err != nil {
		return 0, err
	}
	for e.acceptOp("&&") {
		save := e.skip
		if x == 0 {
			e.skip = true
		}
		y, err := e.parseBitOr()
		e.skip = save
		if err != nil {
			return 0, err
		}
		x = b2uScript(x != 0 && y != 0)
	}
	return x, nil
}

func (e *exprParser) parseBitOr() (uint32, error) {
	x, err := e.parseBitXor()
	if err != nil {
		return 0, err
	}
	for e.acceptOp("|") {
		y, err := e.parseBitXor()
		if err != nil {
			return 0, err
		}
		x |= y
	}
	return x, nil
}

func (e *exprParser) parseBitXor() (uint32, error) {
	x, err := e.parseBitAnd()
	if err != nil {
		return 0, err
	}
	for e.acceptOp("^") {
		y, err := e.parseBitAnd()
		if err != nil {
			return 0, err
		}
		x ^= y
	}
	return x, nil
}

func (e *exprParser) parseBitAnd() (uint32, error) {
	x, err := e.parseEquality()
	if err != nil {
		return 0, err
	}
	for e.acceptOp("&") {
		y, err := e.parseEquality()
		if err != nil {
			return 0, err
		}
		x &= y
	}
	return x, nil
}

func (e *exprParser) parseEquality() (uint32, error) {
	x, err := e.parseRelational()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case e.acceptOp("=="):
			y, err := e.parseRelational()
			if err != nil {
				return 0, err
			}
			x = b2uScript(x == y)
		case e.acceptOp("!="):
			y, err := e.parseRelational()
			if err != nil {
				return 0, err
			}
			x = b2uScript(x != y)
		default:
			return x, nil
		}
	}
}

func (e *exprParser) parseRelational() (uint32, error) {
	x, err := e.parseShift()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case e.acceptOp("<="):
			y, err := e.parseShift()
			if err != nil {
				return 0, err
			}
			x = b2uScript(x <= y)
		case e.acceptOp(">="):
			y, err := e.parseShift()
			if err != nil {
				return 0, err
			}
			x = b2uScript(x >= y)
		case e.acceptOp("<"):
			y, err := e.parseShift()
			if err != nil {
				return 0, err
			}
			x = b2uScript(x < y)
		case e.acceptOp(">"):
			y, err := e.parseShift()
			if err != nil {
				return 0, err
			}
			x = b2uScript(x > y)
		default:
			return x, nil
		}
	}
}

func (e *exprParser) parseShift() (uint32, error) {
	x, err := e.parseAdditive()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case e.acceptOp("<<"):
			y, err := e.parseAdditive()
			if err != nil {
				return 0, err
			}
			x <<= y & 31
		case e.acceptOp(">>"):
			y, err := e.parseAdditive()
			if err != nil {
				return 0, err
			}
			x >>= y & 31
		default:
			return x, nil
		}
	}
}

func (e *exprParser) parseAdditive() (uint32, error) {
	x, err := e.parseMultiplicative()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case e.acceptOp("+"):
			y, err := e.parseMultiplicative()
			if err != nil {
				return 0, err
			}
			x += y
		case e.acceptOp("-"):
			y, err := e.parseMultiplicative()
			if err != nil {
				return 0, err
			}
			x -= y
		default:
			return x, nil
		}
	}
}

func (e *exprParser) parseMultiplicative() (uint32, error) {
	x, err := e.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case e.acceptOp("*"):
			y, err := e.parseUnary()
			if err != nil {
				return 0, err
			}
			x *= y
		case e.acceptOp("/"):
			y, err := e.parseUnary()
			if err != nil {
				return 0, err
			}
			if y == 0 {
				if !e.skip {
					// A trap, not a plain error: every other technology
					// reports division by zero as mem.TrapDivZero, and the
					// conformance oracle holds the script class to that too.
					return 0, &mem.Trap{Kind: mem.TrapDivZero}
				}
				y = 1
			}
			x /= y
		case e.acceptOp("%"):
			y, err := e.parseUnary()
			if err != nil {
				return 0, err
			}
			if y == 0 {
				if !e.skip {
					return 0, &mem.Trap{Kind: mem.TrapDivZero}
				}
				y = 1
			}
			x %= y
		default:
			return x, nil
		}
	}
}

func (e *exprParser) parseUnary() (uint32, error) {
	e.skipSpace()
	if e.eof() {
		return 0, fmt.Errorf("script: expr: unexpected end of expression")
	}
	switch e.src[e.off] {
	case '-':
		e.off++
		v, err := e.nested(e.parseUnary)
		return -v, err
	case '!':
		// distinguish from != handled in equality; a bare ! here is unary
		if e.off+1 < len(e.src) && e.src[e.off+1] == '=' {
			return 0, fmt.Errorf("script: expr: unexpected !=")
		}
		e.off++
		v, err := e.nested(e.parseUnary)
		return b2uScript(v == 0), err
	case '~':
		e.off++
		v, err := e.nested(e.parseUnary)
		return ^v, err
	}
	return e.parsePrimary()
}

// nested runs parse one nesting level deeper (see Interp.enter).
func (e *exprParser) nested(parse func() (uint32, error)) (uint32, error) {
	if err := e.in.enter(); err != nil {
		return 0, err
	}
	v, err := parse()
	e.in.nest--
	return v, err
}

func (e *exprParser) parsePrimary() (uint32, error) {
	e.skipSpace()
	if e.eof() {
		return 0, fmt.Errorf("script: expr: unexpected end of expression")
	}
	c := e.src[e.off]
	switch {
	case c == '[':
		// Command substitution inside an expression, as Tcl's expr does
		// for braced expressions: evaluate the bracketed script and parse
		// its result as a number.
		e.off++
		depth := 1
		b := e.off
		for !e.eof() {
			switch e.src[e.off] {
			case '\\':
				e.off++
			case '[':
				depth++
			case ']':
				depth--
			}
			if depth == 0 {
				break
			}
			e.off++
		}
		if e.eof() {
			return 0, fmt.Errorf("script: expr: missing close-bracket")
		}
		scriptSrc := e.src[b:e.off]
		e.off++ // consume ]
		if e.skip {
			return 0, nil
		}
		res, err := e.in.evalNested(scriptSrc)
		if err != nil {
			return 0, err
		}
		return parseU32(res)
	case c == '(':
		e.off++
		v, err := e.nested(e.parseLOr)
		if err != nil {
			return 0, err
		}
		e.skipSpace()
		if e.eof() || e.src[e.off] != ')' {
			return 0, fmt.Errorf("script: expr: missing )")
		}
		e.off++
		return v, nil
	case c == '$':
		e.off++
		b := e.off
		for !e.eof() {
			ch := e.src[e.off]
			if ch == '_' || (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9') {
				e.off++
				continue
			}
			break
		}
		if b == e.off {
			return 0, fmt.Errorf("script: expr: bare $")
		}
		if e.skip {
			return 0, nil
		}
		v, err := e.in.getVar(e.src[b:e.off])
		if err != nil {
			return 0, err
		}
		return parseU32(v)
	case c >= '0' && c <= '9':
		b := e.off
		if strings.HasPrefix(e.src[e.off:], "0x") || strings.HasPrefix(e.src[e.off:], "0X") {
			e.off += 2
			for !e.eof() && isHex(e.src[e.off]) {
				e.off++
			}
		} else {
			for !e.eof() && e.src[e.off] >= '0' && e.src[e.off] <= '9' {
				e.off++
			}
		}
		return parseU32(e.src[b:e.off])
	}
	return 0, fmt.Errorf("script: expr: unexpected character %q in %q", string(c), e.src)
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func b2uScript(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
