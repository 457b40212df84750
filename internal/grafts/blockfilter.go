package grafts

import (
	"fmt"

	"graftlab/internal/kernel"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// BlockFilter adapts any graft exporting
//
//	process(addr, len) -> outLen
//
// to the kernel's stream-filter interface: each block is marshaled into
// the graft's buffer window, transformed in place (or into the same
// window), and the graft's declared output length is read back. This is
// the general Stream graft carrier: a user writes the transformation in
// GEL or Tcl and plugs it into any filter chain.
type BlockFilter struct {
	name    string
	m       *mem.Memory
	call    tech.Handle
	bufAddr uint32
	bufCap  uint32
	args    [2]uint32
	out     []byte
}

// NewBlockFilter wraps g's entry over the window [bufAddr, bufAddr+bufCap).
func NewBlockFilter(name string, g tech.Graft, entry string, bufAddr, bufCap uint32) (*BlockFilter, error) {
	m := g.Memory()
	if uint64(bufAddr)+uint64(bufCap) > uint64(m.Size()) {
		return nil, fmt.Errorf("grafts: filter window [%#x,+%d) outside graft memory", bufAddr, bufCap)
	}
	return &BlockFilter{
		name: name, m: m,
		call:    tech.Resolve(g, entry),
		bufAddr: bufAddr, bufCap: bufCap,
	}, nil
}

// Name implements kernel.Filter.
func (f *BlockFilter) Name() string { return f.name }

// Process implements kernel.Filter.
func (f *BlockFilter) Process(p []byte) ([]byte, error) {
	out := f.out[:0]
	for len(p) > 0 {
		n := uint32(len(p))
		if n > f.bufCap {
			n = f.bufCap
		}
		f.m.WriteAt(f.bufAddr, p[:n])
		f.args[0] = f.bufAddr
		f.args[1] = n
		outLen, _, err := f.call(telemetry.SpanCtx{}, f.args[:])
		if err != nil {
			return nil, err
		}
		if outLen > f.bufCap {
			return nil, fmt.Errorf("grafts: filter %q claimed %d output bytes, window is %d", f.name, outLen, f.bufCap)
		}
		start := len(out)
		out = append(out, make([]byte, outLen)...)
		f.m.ReadAt(f.bufAddr, out[start:])
		p = p[n:]
	}
	f.out = out
	return out, nil
}

// Finish implements kernel.Filter.
func (f *BlockFilter) Finish() ([]byte, error) { return nil, nil }

var _ kernel.Filter = (*BlockFilter)(nil)
