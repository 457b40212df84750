package gel

import (
	"fmt"
	"strconv"
)

// Error is a front-end error carrying a source position. Err, when set,
// is the sentinel the error wraps (ErrNesting).
type Error struct {
	Pos Pos
	Msg string
	Err error
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func (e *Error) Unwrap() error { return e.Err }

func errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peekByte2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekByte2() == '/':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByte2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peekByte() == '*' && l.peekByte2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// next returns the next token.
func (l *lexer) next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Text: text, Pos: pos}, nil
	case isDigit(c):
		start := l.off
		base := 10
		if c == '0' && (l.peekByte2() == 'x' || l.peekByte2() == 'X') {
			l.advance()
			l.advance()
			base = 16
			if !isHexDigit(l.peekByte()) {
				return Token{}, errf(pos, "malformed hex literal")
			}
			for l.off < len(l.src) && (isHexDigit(l.peekByte()) || l.peekByte() == '_') {
				l.advance()
			}
		} else {
			for l.off < len(l.src) && (isDigit(l.peekByte()) || l.peekByte() == '_') {
				l.advance()
			}
		}
		text := l.src[start:l.off]
		digits := text
		if base == 16 {
			digits = text[2:]
		}
		v, err := strconv.ParseUint(stripUnderscores(digits), base, 64)
		if err != nil {
			return Token{}, errf(pos, "malformed number %q", text)
		}
		if v > 0xFFFFFFFF {
			return Token{}, errf(pos, "number %q exceeds u32 range", text)
		}
		return Token{Kind: NUMBER, Text: text, Val: uint32(v), Pos: pos}, nil
	}

	l.advance()
	two := func(second byte, yes, no Kind) Token {
		if l.peekByte() == second {
			l.advance()
			return Token{Kind: yes, Pos: pos}
		}
		return Token{Kind: no, Pos: pos}
	}
	switch c {
	case '(':
		return Token{Kind: LPAREN, Pos: pos}, nil
	case ')':
		return Token{Kind: RPAREN, Pos: pos}, nil
	case '{':
		return Token{Kind: LBRACE, Pos: pos}, nil
	case '}':
		return Token{Kind: RBRACE, Pos: pos}, nil
	case ',':
		return Token{Kind: COMMA, Pos: pos}, nil
	case ';':
		return Token{Kind: SEMI, Pos: pos}, nil
	case '+':
		return Token{Kind: PLUS, Pos: pos}, nil
	case '-':
		return Token{Kind: MINUS, Pos: pos}, nil
	case '*':
		return Token{Kind: STAR, Pos: pos}, nil
	case '/':
		return Token{Kind: SLASH, Pos: pos}, nil
	case '%':
		return Token{Kind: PERCENT, Pos: pos}, nil
	case '^':
		return Token{Kind: CARET, Pos: pos}, nil
	case '~':
		return Token{Kind: TILDE, Pos: pos}, nil
	case '=':
		return two('=', EQ, ASSIGN), nil
	case '!':
		return two('=', NE, BANG), nil
	case '&':
		return two('&', LAND, AMP), nil
	case '|':
		return two('|', LOR, PIPE), nil
	case '<':
		if l.peekByte() == '<' {
			l.advance()
			return Token{Kind: SHL, Pos: pos}, nil
		}
		return two('=', LE, LT), nil
	case '>':
		if l.peekByte() == '>' {
			l.advance()
			return Token{Kind: SHR, Pos: pos}, nil
		}
		return two('=', GE, GT), nil
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

func stripUnderscores(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '_' {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// Lex tokenizes src completely; used by tests and the CLI.
func Lex(src string) ([]Token, error) {
	l := newLexer(src)
	var toks []Token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
