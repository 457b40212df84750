// Package script is the source-interpreted technology class: a small
// Tcl-like language (the paper measured Tcl 3.7) in which every value is a
// string and every script, loop body, and condition is re-parsed each time
// it is evaluated. That per-evaluation re-parse — not interpretation per
// se — is what put Tcl four orders of magnitude behind compiled code in
// the paper, so this interpreter deliberately keeps it.
//
// Language summary:
//
//	set name ?value?          read or write a variable
//	incr name ?amount?        add to a numeric variable
//	expr {…}                  evaluate an arithmetic expression (u32)
//	if {c} {t} ?elseif {c} {t}…? ?else {e}?
//	while {c} {body}          break/continue supported
//	proc name {params} {body} define a procedure
//	return ?val?
//	ld32 a / ld8 a            load from graft memory (policy-checked)
//	st32 a v / st8 a v        store to graft memory (policy-checked)
//	memsize                   linear memory size
//	abort code                trap
//
// Word syntax follows Tcl: {braced} words are literal, "quoted" and bare
// words undergo $variable and [command] substitution, # starts a comment
// at command position, commands end at newline or semicolon.
package script

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

// result codes, after Tcl's TCL_OK/TCL_BREAK/...
type code int

const (
	cOK code = iota
	cBreak
	cContinue
	cReturn
)

// Proc is a user-defined procedure; its body is kept as source text and
// re-parsed at every call (the Tcl 3.7 behaviour).
type Proc struct {
	Params []string
	Body   string
}

// Interp is a script interpreter bound to a linear graft memory.
type Interp struct {
	mem  *mem.Memory
	cfg  mem.Config
	vars []map[string]string // frame stack; index 0 is globals
	// links[i] marks the names frame i has declared `global`; such names
	// are copied in at declaration and copied back when the proc returns.
	links   []map[string]bool
	proc    map[string]Proc
	handles map[string]handle // one per resolved proc (see Resolve)

	// Fuel limits the number of commands executed per Invoke; 0 = unmetered.
	Fuel int64
	fuel int64

	// CacheParse enables the structural parse cache (see cache.go). It is
	// OFF by default and stays off in every benchmark table: per-eval
	// re-parsing is the defining cost of this technology class, and caching
	// it away is exactly the byte-compiler fix the paper's Tcl 3.7 predates.
	// Exposed for the ablation study only.
	CacheParse bool
	parseCache map[string]*cachedScript

	depth int // proc call depth, bounded by MaxCallDepth
	nest  int // substitution, parenthesis and unary depth, bounded by MaxNesting

	// Sampling-profiler state (see SetProfile). The script interpreter's
	// fuel unit is one command, so the countdown ticks per command and
	// samples attribute to command names — the word parser keeps no line
	// numbers, so this class has no source-line resolution.
	prof      *telemetry.ProfScope
	profEvery int64
	profTick  int64
}

// SetProfile attaches a sampling-profiler scope: every `every` executed
// commands record one sample of weight `every` against the command name
// being dispatched. A nil scope detaches.
func (in *Interp) SetProfile(s *telemetry.ProfScope, every int64) {
	if s == nil || every < 1 {
		in.prof, in.profEvery, in.profTick = nil, 0, 0
		return
	}
	in.prof, in.profEvery, in.profTick = s, every, every
}

// MaxCallDepth bounds proc recursion.
const MaxCallDepth = 128

// MaxNesting bounds the nesting fuel cannot reach — [command]
// substitution, expr parentheses and unary operators, which recurse
// before any command is charged — at Tcl's own nesting limit.
const MaxNesting = 1000

// ErrNesting is wrapped by the error a script gets for nesting deeper
// than MaxNesting.
var ErrNesting = errors.New("script: nesting too deep")

// enter counts one level of nesting, refusing the level past
// MaxNesting; the caller decrements in.nest when it leaves.
func (in *Interp) enter() error {
	if in.nest >= MaxNesting {
		return errNesting()
	}
	in.nest++
	return nil
}

func errNesting() error { return fmt.Errorf("%w (limit %d)", ErrNesting, MaxNesting) }

// MaxValueBytes bounds the word a substitution builds, and so every
// value: fuel is charged per command, not per byte, so without it a
// loop like `set x $x$x` outgrows memory long before its budget runs out.
const MaxValueBytes = 1 << 20

// ErrValueSize is wrapped by the error a script gets for a substitution
// that would make its word longer than MaxValueBytes.
var ErrValueSize = errors.New("script: value too large")

// evalNested evaluates a [command] substitution one nesting level
// deeper.
func (in *Interp) evalNested(src string) (string, error) {
	if err := in.enter(); err != nil {
		return "", err
	}
	res, _, err := in.eval(src)
	in.nest--
	return res, err
}

// New creates an interpreter over m. The policy applies to the memory
// commands; an interpreter is inherently safe, so PolicyUnsafe still
// bounds-checks (as the paper notes, interpretation "allows complete
// control over the behavior of the extension").
func New(m *mem.Memory, cfg mem.Config) *Interp {
	return &Interp{
		mem:     m,
		cfg:     cfg,
		vars:    []map[string]string{make(map[string]string)},
		links:   []map[string]bool{nil},
		proc:    make(map[string]Proc),
		handles: make(map[string]handle),
	}
}

// Memory returns the linear memory the interpreter is bound to.
func (in *Interp) Memory() *mem.Memory { return in.mem }

// Load evaluates a script at global level, typically a sequence of proc
// definitions (the graft source).
func (in *Interp) Load(src string) error {
	in.fuel = in.Fuel // loading is not charged against invocation fuel
	in.nest = 0
	_, _, err := in.eval(src)
	return err
}

// handle is a resolved entry point in the tech.Handle convention: span
// context and args in; value, fuel charged and error out.
type handle = func(ctx telemetry.SpanCtx, args []uint32) (uint32, int64, error)

// Resolve returns the handle for proc entry, built on the first resolve
// of its name. Procs are defined by running the script, so the handle
// calls its proc by name, as Invoke does (an undefined proc fails at
// call time), and reports the commands the call charged against its
// budget (0 when unmetered). Resolve reads no interpreter state, so a
// server goroutine may run the interpreter while a caller resolves.
func (in *Interp) Resolve(entry string) (handle, bool) {
	h, ok := in.handles[entry]
	if !ok {
		h = func(_ telemetry.SpanCtx, args []uint32) (uint32, int64, error) {
			v, err := in.Invoke(entry, args...)
			return v, in.fuelUsed(), err
		}
		in.handles[entry] = h
	}
	return h, true
}

// Invoke calls a proc with numeric arguments, mirroring the entry-point
// convention of the compiled technologies.
func (in *Interp) Invoke(entry string, args ...uint32) (uint32, error) {
	p, ok := in.proc[entry]
	if !ok {
		return 0, fmt.Errorf("script: no proc %q", entry)
	}
	if len(args) != len(p.Params) {
		return 0, fmt.Errorf("script: proc %q takes %d args, got %d", entry, len(p.Params), len(args))
	}
	words := make([]string, 0, len(args)+1)
	words = append(words, entry)
	for _, a := range args {
		words = append(words, strconv.FormatUint(uint64(a), 10))
	}
	in.fuel = in.Fuel
	in.depth = 0
	in.nest = 0
	res, _, err := in.invokeWords(words)
	if err != nil {
		return 0, err
	}
	return parseU32(res)
}

// fuelUsed reports the commands charged against the most recent
// invocation's budget (0 when unmetered).
func (in *Interp) fuelUsed() int64 {
	if in.Fuel <= 0 {
		return 0
	}
	used := in.Fuel - in.fuel
	if used > in.Fuel {
		used = in.Fuel // fuel trap leaves the counter at -1
	}
	if used < 0 {
		used = 0
	}
	return used
}

func (in *Interp) frame() map[string]string { return in.vars[len(in.vars)-1] }

func (in *Interp) getVar(name string) (string, error) {
	if v, ok := in.frame()[name]; ok {
		return v, nil
	}
	return "", fmt.Errorf("script: can't read %q: no such variable", name)
}

func (in *Interp) burn() error {
	if in.Fuel > 0 {
		in.fuel--
		if in.fuel < 0 {
			return &mem.Trap{Kind: mem.TrapFuel}
		}
	}
	return nil
}

// eval parses and runs a script, returning the last command's result.
func (in *Interp) eval(src string) (string, code, error) {
	if in.CacheParse {
		return in.evalCached(src)
	}
	p := &wordParser{src: src, in: in}
	last := ""
	for {
		words, ok, err := p.nextCommand()
		if err != nil {
			return "", cOK, err
		}
		if !ok {
			return last, cOK, nil
		}
		if len(words) == 0 {
			continue
		}
		res, c, err := in.invokeWords(words)
		if err != nil {
			return "", cOK, err
		}
		if c != cOK {
			return res, c, nil
		}
		last = res
	}
}

func (in *Interp) invokeWords(words []string) (string, code, error) {
	if err := in.burn(); err != nil {
		return "", cOK, err
	}
	if in.profEvery != 0 {
		in.profTick--
		if in.profTick <= 0 {
			in.profTick += in.profEvery
			in.prof.Hit(words[0], 0, in.profEvery)
		}
	}
	switch words[0] {
	case "set":
		switch len(words) {
		case 2:
			v, err := in.getVar(words[1])
			return v, cOK, err
		case 3:
			in.frame()[words[1]] = words[2]
			return words[2], cOK, nil
		}
		return "", cOK, fmt.Errorf(`script: wrong # args: should be "set name ?value?"`)
	case "incr":
		if len(words) != 2 && len(words) != 3 {
			return "", cOK, fmt.Errorf(`script: wrong # args: should be "incr name ?amount?"`)
		}
		cur, err := in.getVar(words[1])
		if err != nil {
			return "", cOK, err
		}
		base, err := parseU32(cur)
		if err != nil {
			return "", cOK, err
		}
		amount := uint32(1)
		if len(words) == 3 {
			amount, err = parseU32(words[2])
			if err != nil {
				return "", cOK, err
			}
		}
		nv := formatU32(base + amount)
		in.frame()[words[1]] = nv
		return nv, cOK, nil
	case "expr":
		// Tcl concatenates the arguments with spaces and parses the result
		// from scratch — every single time.
		v, err := in.evalExpr(strings.Join(words[1:], " "))
		if err != nil {
			return "", cOK, err
		}
		return formatU32(v), cOK, nil
	case "if":
		return in.cmdIf(words)
	case "while":
		if len(words) != 3 {
			return "", cOK, fmt.Errorf(`script: wrong # args: should be "while cond body"`)
		}
		for {
			if err := in.burn(); err != nil {
				return "", cOK, err
			}
			cond, err := in.evalExpr(words[1])
			if err != nil {
				return "", cOK, err
			}
			if cond == 0 {
				return "", cOK, nil
			}
			res, c, err := in.eval(words[2])
			if err != nil {
				return "", cOK, err
			}
			switch c {
			case cBreak:
				return "", cOK, nil
			case cReturn:
				return res, cReturn, nil
			}
		}
	case "global":
		// Tcl's global: link names in the current proc frame to the
		// global frame. Our frames are plain maps, so the link is a
		// copy-in; writes after `global` update the local copy and are
		// copied back when the proc returns (see invokeWords). At global
		// level the command is a no-op, as in Tcl.
		if len(words) < 2 {
			return "", cOK, fmt.Errorf(`script: wrong # args: should be "global name ?name ...?"`)
		}
		if len(in.vars) > 1 {
			fr := in.frame()
			top := len(in.links) - 1
			if in.links[top] == nil {
				in.links[top] = make(map[string]bool)
			}
			for _, name := range words[1:] {
				if v, ok := in.vars[0][name]; ok {
					fr[name] = v
				}
				in.links[top][name] = true
			}
		}
		return "", cOK, nil
	case "proc":
		if len(words) != 4 {
			return "", cOK, fmt.Errorf(`script: wrong # args: should be "proc name params body"`)
		}
		params := strings.Fields(words[2])
		in.proc[words[1]] = Proc{Params: params, Body: words[3]}
		return "", cOK, nil
	case "return":
		switch len(words) {
		case 1:
			return "0", cReturn, nil
		case 2:
			return words[1], cReturn, nil
		}
		return "", cOK, fmt.Errorf(`script: wrong # args: should be "return ?value?"`)
	case "break":
		return "", cBreak, nil
	case "continue":
		return "", cContinue, nil
	case "ld32", "ld8":
		if len(words) != 2 {
			return "", cOK, fmt.Errorf(`script: wrong # args: should be "%s addr"`, words[0])
		}
		a, err := parseU32(words[1])
		if err != nil {
			return "", cOK, err
		}
		v, err := in.load(a, words[0] == "ld32")
		if err != nil {
			return "", cOK, err
		}
		return formatU32(v), cOK, nil
	case "st32", "st8":
		if len(words) != 3 {
			return "", cOK, fmt.Errorf(`script: wrong # args: should be "%s addr value"`, words[0])
		}
		a, err := parseU32(words[1])
		if err != nil {
			return "", cOK, err
		}
		v, err := parseU32(words[2])
		if err != nil {
			return "", cOK, err
		}
		if err := in.store(a, v, words[0] == "st32"); err != nil {
			return "", cOK, err
		}
		return "", cOK, nil
	case "memsize":
		return formatU32(in.mem.Size()), cOK, nil
	case "abort":
		var codeVal uint32
		if len(words) > 1 {
			var err error
			codeVal, err = parseU32(words[1])
			if err != nil {
				return "", cOK, err
			}
		}
		return "", cOK, &mem.Trap{Kind: mem.TrapAbort, Code: codeVal}
	}

	p, ok := in.proc[words[0]]
	if !ok {
		return "", cOK, fmt.Errorf("script: invalid command name %q", words[0])
	}
	if len(words)-1 != len(p.Params) {
		return "", cOK, fmt.Errorf("script: proc %q takes %d args, got %d", words[0], len(p.Params), len(words)-1)
	}
	if in.depth >= MaxCallDepth {
		return "", cOK, &mem.Trap{Kind: mem.TrapStackOverflow}
	}
	fr := make(map[string]string, len(p.Params))
	for i, name := range p.Params {
		fr[name] = words[i+1]
	}
	in.vars = append(in.vars, fr)
	in.links = append(in.links, nil)
	in.depth++
	res, c, err := in.eval(p.Body)
	in.depth--
	// Copy global-linked names back before the frame dies.
	if lk := in.links[len(in.links)-1]; lk != nil {
		for name := range lk {
			if v, ok := fr[name]; ok {
				in.vars[0][name] = v
			}
		}
	}
	in.links = in.links[:len(in.links)-1]
	in.vars = in.vars[:len(in.vars)-1]
	if err != nil {
		return "", cOK, err
	}
	if c == cBreak || c == cContinue {
		return "", cOK, fmt.Errorf("script: invoked %q outside of a loop", map[code]string{cBreak: "break", cContinue: "continue"}[c])
	}
	return res, cOK, nil
}

func (in *Interp) cmdIf(words []string) (string, code, error) {
	// if {c} {t} ?elseif {c} {t}…? ?else {e}?
	i := 1
	for {
		if i+1 >= len(words) {
			return "", cOK, fmt.Errorf(`script: wrong # args: should be "if cond body ?elseif cond body? ?else body?"`)
		}
		cond, err := in.evalExpr(words[i])
		if err != nil {
			return "", cOK, err
		}
		if cond != 0 {
			return in.eval(words[i+1])
		}
		i += 2
		if i >= len(words) {
			return "", cOK, nil
		}
		switch words[i] {
		case "elseif":
			i++
			continue
		case "else":
			if i+1 != len(words)-1 {
				return "", cOK, fmt.Errorf(`script: wrong # args after "else"`)
			}
			return in.eval(words[i+1])
		default:
			return "", cOK, fmt.Errorf("script: expected elseif/else, got %q", words[i])
		}
	}
}

func (in *Interp) load(a uint32, word bool) (uint32, error) {
	if f := in.mem.Faults(); f != nil {
		if t := f.Check(false, a); t != nil {
			return 0, t
		}
	}
	width := uint32(1)
	if word {
		width = 4
	}
	if in.cfg.Policy == mem.PolicySandbox {
		if word {
			a = in.mem.SandboxWord(a)
		} else {
			a = in.mem.Sandbox(a)
		}
	} else if uint64(a)+uint64(width) > uint64(in.mem.Size()) {
		return 0, &mem.Trap{Kind: mem.TrapOOBLoad, Addr: a}
	}
	if word {
		return in.mem.Ld32U(a), nil
	}
	return in.mem.Ld8U(a), nil
}

func (in *Interp) store(a, v uint32, word bool) error {
	if f := in.mem.Faults(); f != nil {
		if t := f.Check(true, a); t != nil {
			return t
		}
	}
	width := uint32(1)
	if word {
		width = 4
	}
	if in.cfg.Policy == mem.PolicySandbox {
		if word {
			a = in.mem.SandboxWord(a)
		} else {
			a = in.mem.Sandbox(a)
		}
	} else if uint64(a)+uint64(width) > uint64(in.mem.Size()) {
		return &mem.Trap{Kind: mem.TrapOOBStore, Addr: a}
	}
	if word {
		in.mem.St32U(a, v)
	} else {
		in.mem.St8U(a, v)
	}
	return nil
}

func parseU32(s string) (uint32, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("script: expected integer but got %q", s)
	}
	u := uint32(v) // wrap, like every other backend
	if neg {
		u = -u
	}
	return u, nil
}

func formatU32(v uint32) string { return strconv.FormatUint(uint64(v), 10) }
