package script

import (
	"fmt"
	"strings"
)

// wordParser splits a script into commands and words, performing $variable
// and [command] substitution exactly where Tcl does. A fresh parser is
// built for every evaluation of every script — the defining cost model of
// the source-interpreted technology class.
type wordParser struct {
	src string
	off int
	in  *Interp
}

func (p *wordParser) eof() bool { return p.off >= len(p.src) }

func (p *wordParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.off]
}

// nextCommand returns the next command's words; ok=false at end of script.
func (p *wordParser) nextCommand() ([]string, bool, error) {
	// Skip blank space, command separators, and comments.
	for !p.eof() {
		c := p.peek()
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';' {
			p.off++
			continue
		}
		if c == '#' {
			for !p.eof() && p.peek() != '\n' {
				p.off++
			}
			continue
		}
		break
	}
	if p.eof() {
		return nil, false, nil
	}
	var words []string
	for {
		// Skip intra-command whitespace.
		for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
			p.off++
		}
		if p.eof() {
			break
		}
		c := p.peek()
		if c == '\n' || c == '\r' || c == ';' {
			p.off++
			break
		}
		w, err := p.word()
		if err != nil {
			return nil, false, err
		}
		words = append(words, w)
	}
	return words, true, nil
}

func (p *wordParser) word() (string, error) {
	switch p.peek() {
	case '{':
		return p.bracedWord()
	case '"':
		return p.quotedWord()
	default:
		return p.bareWord()
	}
}

// bracedWord reads a {…} word literally, honoring nesting.
func (p *wordParser) bracedWord() (string, error) {
	start := p.off
	p.off++ // consume {
	depth := 1
	b := p.off
	for !p.eof() {
		c := p.src[p.off]
		switch c {
		case '\\':
			p.off += 2
			continue
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				w := p.src[b:p.off]
				p.off++
				return w, nil
			}
		}
		p.off++
	}
	return "", fmt.Errorf("script: missing close-brace (opened at offset %d)", start)
}

func (p *wordParser) quotedWord() (string, error) {
	p.off++ // consume "
	var sb strings.Builder
	for !p.eof() {
		c := p.src[p.off]
		if c == '"' {
			p.off++
			return sb.String(), nil
		}
		if err := p.substChar(&sb); err != nil {
			return "", err
		}
	}
	return "", fmt.Errorf("script: missing closing quote")
}

func (p *wordParser) bareWord() (string, error) {
	var sb strings.Builder
	for !p.eof() {
		c := p.src[p.off]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';' {
			break
		}
		if err := p.substChar(&sb); err != nil {
			return "", err
		}
	}
	return sb.String(), nil
}

// substChar consumes one input element (plain char, escape, $var, or
// [script]) and appends its substitution to sb.
func (p *wordParser) substChar(sb *strings.Builder) error {
	c := p.src[p.off]
	switch c {
	case '\\':
		p.off++
		if p.eof() {
			sb.WriteByte('\\')
			return nil
		}
		e := p.src[p.off]
		p.off++
		switch e {
		case 'n':
			sb.WriteByte('\n')
		case 't':
			sb.WriteByte('\t')
		case 'r':
			sb.WriteByte('\r')
		default:
			sb.WriteByte(e)
		}
		return nil
	case '$':
		p.off++
		name, err := p.varName()
		if err != nil {
			return err
		}
		if name == "" {
			sb.WriteByte('$')
			return nil
		}
		v, err := p.in.getVar(name)
		if err != nil {
			return err
		}
		sb.WriteString(v)
		return nil
	case '[':
		p.off++
		script, err := p.bracketScript()
		if err != nil {
			return err
		}
		res, err := p.in.evalNested(script)
		if err != nil {
			return err
		}
		sb.WriteString(res)
		return nil
	default:
		sb.WriteByte(c)
		p.off++
		return nil
	}
}

func (p *wordParser) varName() (string, error) {
	if p.eof() {
		return "", nil
	}
	if p.peek() == '{' {
		p.off++
		b := p.off
		for !p.eof() && p.peek() != '}' {
			p.off++
		}
		if p.eof() {
			return "", fmt.Errorf("script: missing close-brace for variable name")
		}
		name := p.src[b:p.off]
		p.off++
		return name, nil
	}
	b := p.off
	for !p.eof() {
		c := p.peek()
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.off++
			continue
		}
		break
	}
	return p.src[b:p.off], nil
}

// bracketScript scans a [command] substitution up to its matching
// close-bracket; called just past '['. Evaluating the substitution
// nests one level per bracket the scan passes, so a scan whose depth
// would take the interpreter past MaxNesting stops there with
// ErrNesting, before re-scanning the rest of the source at every
// level. Brackets count wherever they stand, inside braces too.
func (p *wordParser) bracketScript() (string, error) {
	b := p.off
	depth := 1
	for !p.eof() {
		c := p.src[p.off]
		switch c {
		case '\\':
			p.off += 2
			continue
		case '[':
			depth++
			if p.in.nest+depth > MaxNesting {
				return "", errNesting()
			}
		case ']':
			depth--
			if depth == 0 {
				s := p.src[b:p.off]
				p.off++
				return s, nil
			}
		}
		p.off++
	}
	return "", fmt.Errorf("script: missing close-bracket")
}
