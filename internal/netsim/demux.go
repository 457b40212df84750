package netsim

import (
	"fmt"

	"graftlab/internal/tech"
)

// FilterFunc decides whether an endpoint accepts a frame already
// marshaled into its graft memory; frameLen is the frame size in bytes.
type FilterFunc func(frameLen uint32) (bool, error)

// Endpoint is one registered consumer of the demultiplexer.
type Endpoint struct {
	Name    string
	filter  FilterFunc
	marshal func(p Packet)
	Matched uint64
	Errors  uint64
	// LastErr is the most recent filter trap charged to this endpoint.
	LastErr error

	// Batched-path hooks, set by RegisterBatch (see batch.go).
	batchMarshal func(slot uint32, p Packet)
	batchCall    func(n uint32) (uint32, error)
	verdictAt    func(slot uint32) (v uint32, committed bool)
	maxBatch     int
	hasVerdicts  bool
}

// DemuxStats counts demultiplexer activity.
type DemuxStats struct {
	Frames     uint64
	Delivered  uint64
	Unclaimed  uint64
	FilterRuns uint64
}

// Demux is the packet demultiplexer: each arriving frame is offered to
// every endpoint's filter in registration order until one claims it — the
// structure of the packet-filter systems the paper cites [MOGUL87,
// MCCAN93]. A filter that traps is charged an error and treated as a
// rejection; a broken filter loses its own packets, never the kernel.
//
// With many endpoints the linear scan is the bottleneck, which is the
// problem MPF [YUHARA94] solved by merging structurally identical
// filters into one dispatch step. RegisterPort is that idea here: an
// endpoint that declares "IPv4 UDP to port P" joins a port table the
// demultiplexer consults with one lookup, and only frames no port
// endpoint claims fall through to the general filter scan.
type Demux struct {
	endpoints  []*Endpoint
	ports      map[uint16]*Endpoint
	stats      DemuxStats
	batchStats BatchStats
	pending    []int // DeliverBatch scratch: frames no endpoint claimed yet
}

// NewDemux builds an empty demultiplexer.
func NewDemux() *Demux { return &Demux{} }

// Register adds an endpoint whose filter is the graft g. The frame is
// marshaled to bufAddr in g's memory with its length invoked as the
// single argument of entry.
func (d *Demux) Register(name string, g tech.Graft, entry string, bufAddr uint32) (*Endpoint, error) {
	m := g.Memory()
	if bufAddr >= m.Size() {
		return nil, fmt.Errorf("netsim: buffer address %#x outside graft memory", bufAddr)
	}
	capacity := m.Size() - bufAddr
	call := tech.ResolveDirect(g, entry)
	args := make([]uint32, 1)
	ep := &Endpoint{
		Name: name,
		marshal: func(p Packet) {
			n := uint32(len(p))
			if n > capacity {
				n = capacity
			}
			m.WriteAt(bufAddr, p[:n])
		},
		filter: func(frameLen uint32) (bool, error) {
			args[0] = frameLen
			v, err := call(args)
			return v != 0, err
		},
	}
	d.endpoints = append(d.endpoints, ep)
	return ep, nil
}

// RegisterFunc adds an endpoint backed by a host function (the hand-
// written reference filter).
func (d *Demux) RegisterFunc(name string, fn func(p Packet) bool) *Endpoint {
	var current Packet
	ep := &Endpoint{
		Name:    name,
		marshal: func(p Packet) { current = p },
		filter: func(uint32) (bool, error) {
			return fn(current), nil
		},
	}
	d.endpoints = append(d.endpoints, ep)
	return ep
}

// RegisterPort adds an MPF-style merged endpoint: IPv4 UDP frames to
// port are claimed with a single map lookup instead of a filter run.
func (d *Demux) RegisterPort(name string, port uint16) (*Endpoint, error) {
	if d.ports == nil {
		d.ports = make(map[uint16]*Endpoint)
	}
	if _, dup := d.ports[port]; dup {
		return nil, fmt.Errorf("netsim: port %d already registered", port)
	}
	ep := &Endpoint{Name: name}
	d.ports[port] = ep
	return ep, nil
}

// Deliver offers one frame to the endpoints; it returns the claiming
// endpoint or nil. Port-table endpoints are consulted first (one lookup
// for any number of them), then the general filters in order.
func (d *Demux) Deliver(p Packet) (*Endpoint, error) {
	d.stats.Frames++
	if len(d.ports) > 0 && p.IsUDPv4() {
		if ep, ok := d.ports[p.DstPort()]; ok {
			ep.Matched++
			d.stats.Delivered++
			return ep, nil
		}
	}
	for _, ep := range d.endpoints {
		ep.marshal(p)
		d.stats.FilterRuns++
		ok, err := ep.filter(uint32(len(p)))
		if err != nil {
			ep.Errors++
			ep.LastErr = err
			continue
		}
		if ok {
			ep.Matched++
			d.stats.Delivered++
			return ep, nil
		}
	}
	d.stats.Unclaimed++
	return nil, nil
}

// Stats returns a copy of the counters.
func (d *Demux) Stats() DemuxStats { return d.stats }

// Endpoints returns the registered filter endpoints in offer order
// (port-table endpoints are not included).
func (d *Demux) Endpoints() []*Endpoint { return d.endpoints }
