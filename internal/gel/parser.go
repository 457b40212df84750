package gel

import (
	"errors"
	"fmt"
)

// Recursive-descent parser. Grammar:
//
//	program  := funcdecl*
//	funcdecl := "func" IDENT "(" [IDENT ("," IDENT)*] ")" block
//	block    := "{" stmt* "}"
//	stmt     := "var" IDENT "=" expr ";"
//	          | IDENT "=" expr ";"
//	          | "if" "(" expr ")" block ["else" (block | if-stmt)]
//	          | "while" "(" expr ")" block
//	          | "break" ";" | "continue" ";"
//	          | "return" [expr] ";"
//	          | expr ";"
//
// Expression precedence, loosest first:
//
//	|| , && , | , ^ , & , (== !=) , (< <= > >=) , (<< >>) , (+ -) ,
//	(* / %) , unary (- ! ~) , primary
//
// Nesting is bounded: every recursive production counts its depth, and
// every expression node its height, against MaxNesting. The checker,
// folder and compiler recurse over the tree the parser builds, so the
// bound protects them too — hostile source gets ErrNesting instead of
// exhausting the goroutine stack.
type parser struct {
	lex   *lexer
	tok   Token // current token
	depth int   // active recursive productions
	h     int   // height of the expression the last production returned
}

// MaxNesting bounds GEL nesting: recursive productions (blocks, if
// statements, parenthesised, unary and argument expressions) and the
// height of every expression tree. Real grafts stay under a few dozen.
const MaxNesting = 1000

// ErrNesting is wrapped by the *Error Parse returns for source nested
// deeper than MaxNesting.
var ErrNesting = errors.New("nesting exceeds limit")

// nest enters one recursive production; the caller defers unnest.
func (p *parser) nest() error {
	p.depth++
	if p.depth > MaxNesting {
		return &Error{Pos: p.tok.Pos, Msg: fmt.Sprintf("nesting deeper than %d levels", MaxNesting), Err: ErrNesting}
	}
	return nil
}

func (p *parser) unnest() { p.depth-- }

// grow records h as the height of the expression about to be returned.
func (p *parser) grow(h int, pos Pos) error {
	if h > MaxNesting {
		return &Error{Pos: pos, Msg: fmt.Sprintf("expression deeper than %d levels", MaxNesting), Err: ErrNesting}
	}
	p.h = h
	return nil
}

// Parse lexes and parses src into an unchecked Program.
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &Program{ByName: make(map[string]int), Source: src}
	for p.tok.Kind != EOF {
		fd, err := p.funcDecl()
		if err != nil {
			return nil, err
		}
		fd.Index = len(prog.Funcs)
		prog.Funcs = append(prog.Funcs, fd)
	}
	return prog, nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k Kind) (Token, error) {
	if p.tok.Kind != k {
		return Token{}, errf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return Token{}, err
	}
	return t, nil
}

func (p *parser) accept(k Kind) (bool, error) {
	if p.tok.Kind != k {
		return false, nil
	}
	return true, p.advance()
}

func (p *parser) funcDecl() (*FuncDecl, error) {
	pos := p.tok.Pos
	if _, err := p.expect(KFUNC); err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	var params []string
	if p.tok.Kind != RPAREN {
		for {
			id, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			params = append(params, id.Text)
			ok, err := p.accept(COMMA)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Name: name.Text, Params: params, Body: body, Pos: pos}, nil
}

func (p *parser) block() (*Block, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	pos := p.tok.Pos
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	b := &Block{Pos: pos}
	for p.tok.Kind != RBRACE {
		if p.tok.Kind == EOF {
			return nil, errf(p.tok.Pos, "unexpected end of file inside block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, p.advance() // consume }
}

func (p *parser) stmt() (Stmt, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case KVAR:
		if err := p.advance(); err != nil {
			return nil, err
		}
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return nil, err
		}
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &VarDecl{Name: id.Text, Slot: -1, Init: init, Pos: pos}, nil
	case KIF:
		return p.ifStmt()
	case KWHILE:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body, Pos: pos}, nil
	case KBREAK:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &Break{Pos: pos}, nil
	case KCONTINUE:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &Continue{Pos: pos}, nil
	case KRETURN:
		if err := p.advance(); err != nil {
			return nil, err
		}
		var val Expr
		if p.tok.Kind != SEMI {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			val = v
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &Return{Val: val, Pos: pos}, nil
	case LBRACE:
		return p.block()
	case IDENT:
		// Could be assignment `x = e;` or an expression statement `f(...);`.
		// One token of lookahead after the identifier distinguishes them.
		id := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind == ASSIGN {
			if err := p.advance(); err != nil {
				return nil, err
			}
			val, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			return &Assign{Name: id.Text, Slot: -1, Val: val, Pos: pos}, nil
		}
		// Re-enter expression parsing with the identifier already consumed.
		x, err := p.primaryFromIdent(id)
		if err != nil {
			return nil, err
		}
		x, err = p.binaryRHS(x, 0)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &ExprStmt{X: x, Pos: pos}, nil
	default:
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &ExprStmt{X: x, Pos: pos}, nil
	}
}

func (p *parser) ifStmt() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	pos := p.tok.Pos
	if err := p.advance(); err != nil { // consume if
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &If{Cond: cond, Then: then, Pos: pos}
	ok, err := p.accept(KELSE)
	if err != nil {
		return nil, err
	}
	if ok {
		if p.tok.Kind == KIF {
			els, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			node.Else = els
		} else {
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			node.Else = els
		}
	}
	return node, nil
}

// binary operator precedence levels; higher binds tighter.
var precedence = map[Kind]int{
	LOR: 1, LAND: 2, PIPE: 3, CARET: 4, AMP: 5,
	EQ: 6, NE: 6,
	LT: 7, LE: 7, GT: 7, GE: 7,
	SHL: 8, SHR: 8,
	PLUS: 9, MINUS: 9,
	STAR: 10, SLASH: 10, PERCENT: 10,
}

var tokToBinOp = map[Kind]BinOp{
	PLUS: BAdd, MINUS: BSub, STAR: BMul, SLASH: BDiv, PERCENT: BRem,
	AMP: BAnd, PIPE: BOr, CARET: BXor, SHL: BShl, SHR: BShr,
	EQ: BEq, NE: BNe, LT: BLt, LE: BLe, GT: BGt, GE: BGe,
	LAND: BLAnd, LOR: BLOr,
}

func (p *parser) expr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	return p.binaryRHS(lhs, 0)
}

// binaryRHS implements precedence climbing above an already-parsed lhs,
// whose height is in p.h.
func (p *parser) binaryRHS(lhs Expr, minPrec int) (Expr, error) {
	lh := p.h
	for {
		prec, ok := precedence[p.tok.Kind]
		if !ok || prec < minPrec {
			p.h = lh
			return lhs, nil
		}
		op := tokToBinOp[p.tok.Kind]
		pos := p.tok.Pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.unary()
		if err != nil {
			return nil, err
		}
		for {
			nextPrec, ok := precedence[p.tok.Kind]
			if !ok || nextPrec <= prec {
				break
			}
			rhs, err = p.binaryRHS(rhs, nextPrec)
			if err != nil {
				return nil, err
			}
		}
		if err := p.grow(1+max(lh, p.h), pos); err != nil {
			return nil, err
		}
		lhs, lh = &Binary{Op: op, X: lhs, Y: rhs, Pos: pos}, p.h
	}
}

func (p *parser) unary() (Expr, error) {
	var op UnaryOp
	switch p.tok.Kind {
	case MINUS:
		op = UNeg
	case BANG:
		op = UNot
	case TILDE:
		op = UCpl
	default:
		return p.primary()
	}
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	pos := p.tok.Pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	x, err := p.unary()
	if err != nil {
		return nil, err
	}
	if err := p.grow(p.h+1, pos); err != nil {
		return nil, err
	}
	return &Unary{Op: op, X: x, Pos: pos}, nil
}

func (p *parser) primary() (Expr, error) {
	switch p.tok.Kind {
	case NUMBER:
		t := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		p.h = 1
		return &NumberLit{Val: t.Val, Pos: t.Pos}, nil
	case IDENT:
		t := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.primaryFromIdent(t)
	case LPAREN:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, errf(p.tok.Pos, "expected expression, found %s", p.tok)
}

// primaryFromIdent finishes a primary whose leading identifier token has
// already been consumed (call or variable reference).
func (p *parser) primaryFromIdent(id Token) (Expr, error) {
	if p.tok.Kind != LPAREN {
		p.h = 1
		return &VarRef{Name: id.Text, Slot: -1, Pos: id.Pos}, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	call := &Call{Name: id.Text, FuncIdx: -1, Pos: id.Pos}
	h := 0
	if p.tok.Kind != RPAREN {
		for {
			arg, err := p.expr()
			if err != nil {
				return nil, err
			}
			h = max(h, p.h)
			call.Args = append(call.Args, arg)
			ok, err := p.accept(COMMA)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if err := p.grow(h+1, id.Pos); err != nil {
		return nil, err
	}
	return call, nil
}
