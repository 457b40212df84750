package kernel

import (
	"fmt"

	"graftlab/internal/telemetry"
)

// Filter is one stage of a Stream graft chain (§3.2): it consumes blocks
// of data and emits transformed blocks. MD5 fingerprinting is an identity
// filter with state; compression or encryption filters transform.
type Filter interface {
	Name() string
	// Process consumes p and returns the bytes to pass downstream. The
	// returned slice may alias p or the filter's internal buffer and is
	// only valid until the next call.
	Process(p []byte) ([]byte, error)
	// Finish flushes any buffered output at end of stream.
	Finish() ([]byte, error)
}

// Chain is an ordered stack of filters between a data source and a sink,
// in the style of the UNIX Stream I/O System the paper cites [RITCH84].
type Chain struct {
	filters []Filter
	sink    func(p []byte) error
	written uint64
}

// NewChain builds a chain ending in sink; a nil sink discards output.
func NewChain(sink func(p []byte) error, filters ...Filter) *Chain {
	if sink == nil {
		sink = func([]byte) error { return nil }
	}
	return &Chain{filters: filters, sink: sink}
}

// Write pushes p through every filter and into the sink. When causal
// tracing samples this write, each filter pass is recorded as a
// "filter:<name>" child of a "kernel:stream" root span, carrying the
// filter index and the bytes in and out; the span name is built only
// then.
func (c *Chain) Write(p []byte) (int, error) {
	data := p
	var err error
	root := telemetry.RootSpan("kernel:stream", "kernel")
	for i, f := range c.filters {
		in := len(data)
		var fs telemetry.Span
		if root.Active() {
			fs = telemetry.ChildSpan(root.Ctx(), "filter:"+f.Name(), "stream")
		}
		data, err = f.Process(data)
		if fs.Active() {
			fs.End(uint64(i), uint64(in), uint64(len(data)))
		}
		if err != nil {
			if root.Active() {
				root.End(uint64(len(p)), 0, 1)
			}
			return 0, fmt.Errorf("kernel: stream filter %q: %w", f.Name(), err)
		}
		if len(data) == 0 {
			if root.Active() {
				root.End(uint64(len(p)), 0, 0)
			}
			return len(p), nil // filter buffered everything
		}
	}
	if root.Active() {
		root.End(uint64(len(p)), uint64(len(data)), 0)
	}
	c.written += uint64(len(data))
	if err := c.sink(data); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close finishes every filter in order, pushing trailing output through
// the rest of the chain.
func (c *Chain) Close() error {
	for i, f := range c.filters {
		tail, err := f.Finish()
		if err != nil {
			return fmt.Errorf("kernel: stream filter %q finish: %w", f.Name(), err)
		}
		if len(tail) == 0 {
			continue
		}
		data := tail
		for _, g := range c.filters[i+1:] {
			data, err = g.Process(data)
			if err != nil {
				return fmt.Errorf("kernel: stream filter %q: %w", g.Name(), err)
			}
			if len(data) == 0 {
				break
			}
		}
		if len(data) > 0 {
			c.written += uint64(len(data))
			if err := c.sink(data); err != nil {
				return err
			}
		}
	}
	return nil
}

// BytesOut reports how many bytes reached the sink.
func (c *Chain) BytesOut() uint64 { return c.written }

// FilterFunc wraps a stateless transformation as a Filter.
type FilterFunc struct {
	FilterName string
	Fn         func(p []byte) ([]byte, error)
}

// Name implements Filter.
func (f FilterFunc) Name() string { return f.FilterName }

// Process implements Filter.
func (f FilterFunc) Process(p []byte) ([]byte, error) { return f.Fn(p) }

// Finish implements Filter.
func (f FilterFunc) Finish() ([]byte, error) { return nil, nil }
