package netsim

import (
	"fmt"

	"graftlab/internal/tech"
)

// The batched receive path: instead of one technology-boundary crossing
// per frame, the demultiplexer marshals a chunk of frames into per-frame
// slots and hands the whole chunk to the filter graft in one invocation —
// the XDP-style amortization modern kernel-extension runtimes use on the
// receive path. The protocol is graft-visible memory plus one return
// value:
//
//   - frames land in SlotSize-byte slots starting at BufAddr (slot 0 is
//     the single-frame buffer, so a batch of one is the old layout),
//   - frame lengths land in a u32 table at LenBase,
//   - the host pre-fills a u32 verdict table at VerdictBase with the
//     VerdictNone sentinel; store-capable classes overwrite it with 0/1
//     per frame as they go,
//   - the entry returns the accept bitmask (bit i = frame i accepted).
//
// The mask is the one channel every technology class shares: the Domain
// (HiPEC) filter language has loads but no stores, so it can only answer
// through the return value — which is also why a crossing carries at most
// 32 frames (the mask width). Larger deliveries chunk into multiple
// crossings.
//
// Trap attribution follows the sentinel: when a batch invocation traps,
// verdicts already committed to the table are honored, the first slot
// still holding the sentinel is the in-flight frame — charged the error
// and treated as a rejection, exactly like a single-frame trap — and the
// frames after it are re-batched in a fresh invocation. A mask-only
// (Domain) endpoint has no committed verdicts to honor, so its chunk is
// refiltered one frame at a time through the single-frame entry instead.
//
// Equivalence contract: DeliverBatch produces the same assignments and
// counters as per-frame Deliver calls when filters are pure per-frame
// functions of the frame bytes and host-configured state, and frames fit
// their slots. Two documented divergences: a fuel budget is per
// invocation, so a batched crossing meters ~n frames against one budget;
// and access-scheduled fault plans (mem.FaultPlan) count accesses across
// the whole batched invocation, so the Nth access lands on a different
// frame than it would single-stepped. Batching is endpoint-major (all
// pending frames through endpoint 1, the leftovers through endpoint 2,
// ...) while Deliver is frame-major; per-(frame, endpoint) independence
// makes the outcomes identical.
//
// Concurrency model: a Demux, like a Graft, is single-threaded. Per-CPU
// receive queues are modeled by giving each worker its own Demux over its
// own pooled instance (tech.Pool) — see RegisterBatchPooled callers in
// the bench and stress suites.

// BatchConfig describes a batch-capable endpoint's protocol layout.
type BatchConfig struct {
	// Entry is the batch entry point, invoked with the chunk size.
	Entry string
	// SingleEntry is the single-frame entry point, used by Deliver and
	// by the mask-only trap fallback.
	SingleEntry string
	// BufAddr is slot 0 (also the single-frame marshaling buffer).
	BufAddr uint32
	// SlotSize is the per-frame slot stride; longer frames are truncated
	// to the slot (the equivalence contract assumes frames fit).
	SlotSize uint32
	// LenBase is the u32 frame-length table.
	LenBase uint32
	// VerdictBase is the u32 verdict table; HasVerdicts selects the
	// sentinel trap-attribution protocol. Mask-only classes (the Domain
	// language cannot store) leave HasVerdicts false.
	HasVerdicts bool
	VerdictBase uint32
	// VerdictNone is the host-written sentinel verdict.
	VerdictNone uint32
	// MaxBatch caps frames per crossing; clamped to 32 (the mask width).
	// 0 means 32.
	MaxBatch uint32
}

// BatchStats counts batched-path activity. It is deliberately separate
// from DemuxStats, which stays byte-identical between the batched and
// single-frame paths.
type BatchStats struct {
	// Calls is the number of batch invocations (boundary crossings).
	Calls uint64
	// Frames is the total frames offered through batch invocations.
	Frames uint64
	// Traps is the number of batch invocations that trapped.
	Traps uint64
	// Refiltered counts frames refiltered one at a time after a
	// mask-only endpoint's batch invocation trapped.
	Refiltered uint64
}

// maskWidth is the hard per-crossing cap: the accept mask is a u32.
const maskWidth = 32

// RegisterBatch adds a batch-capable endpoint whose filter is the graft
// g. The endpoint still serves the single-frame Deliver path through
// cfg.SingleEntry; DeliverBatch uses cfg.Entry with the slot protocol.
func (d *Demux) RegisterBatch(name string, g tech.Graft, cfg BatchConfig) (*Endpoint, error) {
	if cfg.Entry == "" || cfg.SingleEntry == "" {
		return nil, fmt.Errorf("netsim: batch endpoint %q needs Entry and SingleEntry", name)
	}
	if cfg.SlotSize == 0 {
		return nil, fmt.Errorf("netsim: batch endpoint %q needs a SlotSize", name)
	}
	max := cfg.MaxBatch
	if max == 0 || max > maskWidth {
		max = maskWidth
	}
	m := g.Memory()
	if end := uint64(cfg.BufAddr) + uint64(max)*uint64(cfg.SlotSize); end > uint64(m.Size()) {
		return nil, fmt.Errorf("netsim: batch endpoint %q: %d slots of %d bytes at %#x exceed graft memory",
			name, max, cfg.SlotSize, cfg.BufAddr)
	}
	if end := uint64(cfg.LenBase) + uint64(max)*4; end > uint64(m.Size()) {
		return nil, fmt.Errorf("netsim: batch endpoint %q: length table outside graft memory", name)
	}
	if cfg.HasVerdicts {
		if end := uint64(cfg.VerdictBase) + uint64(max)*4; end > uint64(m.Size()) {
			return nil, fmt.Errorf("netsim: batch endpoint %q: verdict table outside graft memory", name)
		}
	}

	ep, err := d.Register(name, g, cfg.SingleEntry, cfg.BufAddr)
	if err != nil {
		return nil, err
	}
	batchCall := tech.ResolveDirect(g, cfg.Entry)
	args := make([]uint32, 1)
	ep.maxBatch = int(max)
	ep.hasVerdicts = cfg.HasVerdicts
	ep.batchMarshal = func(slot uint32, p Packet) {
		n := uint32(len(p))
		if n > cfg.SlotSize {
			n = cfg.SlotSize
		}
		m.WriteAt(cfg.BufAddr+slot*cfg.SlotSize, p[:n])
		m.St32U(cfg.LenBase+slot*4, uint32(len(p)))
		if cfg.HasVerdicts {
			m.St32U(cfg.VerdictBase+slot*4, cfg.VerdictNone)
		}
	}
	ep.batchCall = func(n uint32) (uint32, error) {
		args[0] = n
		return batchCall(args)
	}
	ep.verdictAt = func(slot uint32) (uint32, bool) {
		v := m.Ld32U(cfg.VerdictBase + slot*4)
		return v, v != cfg.VerdictNone
	}
	return ep, nil
}

// DeliverBatch offers frames to the endpoints in one pass, crossing the
// technology boundary once per chunk of up to 32 pending frames per
// batch-capable endpoint. The returned slice has one entry per frame:
// the claiming endpoint or nil, identical to per-frame Deliver calls.
// It is freshly allocated (callers keep it); the pending-frame list is
// scratch the Demux reuses across calls.
func (d *Demux) DeliverBatch(frames []Packet) []*Endpoint {
	out := make([]*Endpoint, len(frames))
	pending := d.pending[:0]
	for i, p := range frames {
		d.stats.Frames++
		if len(d.ports) > 0 && p.IsUDPv4() {
			if ep, ok := d.ports[p.DstPort()]; ok {
				ep.Matched++
				d.stats.Delivered++
				out[i] = ep
				continue
			}
		}
		pending = append(pending, i)
	}
	d.pending = pending // keep any growth for the next call
	for _, ep := range d.endpoints {
		if len(pending) == 0 {
			break
		}
		if ep.batchCall == nil {
			pending = d.offerSingly(ep, frames, pending, out)
			continue
		}
		pending = d.offerBatch(ep, frames, pending, out)
	}
	d.stats.Unclaimed += uint64(len(pending))
	return out
}

// offerSingly runs one plain endpoint over the pending frames exactly as
// Deliver would, returning the frames it did not claim.
func (d *Demux) offerSingly(ep *Endpoint, frames []Packet, pending []int, out []*Endpoint) []int {
	still := pending[:0]
	for _, i := range pending {
		ep.marshal(frames[i])
		d.stats.FilterRuns++
		ok, err := ep.filter(uint32(len(frames[i])))
		switch {
		case err != nil:
			ep.Errors++
			ep.LastErr = err
			still = append(still, i)
		case ok:
			ep.Matched++
			d.stats.Delivered++
			out[i] = ep
		default:
			still = append(still, i)
		}
	}
	return still
}

// offerBatch drives one batch-capable endpoint over the pending frames,
// chunking to the endpoint's per-crossing cap and applying the sentinel
// trap-attribution protocol. It returns the frames the endpoint rejected
// (including trapped-on frames), still pending for later endpoints. Like
// offerSingly it filters in place: every frame read appends at most one
// entry to still, so a write never passes the frame being read, and
// frames re-batched after a trap sit at or beyond the read position.
func (d *Demux) offerBatch(ep *Endpoint, frames []Packet, pending []int, out []*Endpoint) []int {
	still := pending[:0]
	accept := func(i int) {
		ep.Matched++
		d.stats.Delivered++
		out[i] = ep
	}
	for len(pending) > 0 {
		k := len(pending)
		if k > ep.maxBatch {
			k = ep.maxBatch
		}
		chunk := pending[:k]
		for slot, i := range chunk {
			ep.batchMarshal(uint32(slot), frames[i])
		}
		d.batchStats.Calls++
		d.batchStats.Frames += uint64(k)
		mask, err := ep.batchCall(uint32(k))
		if err == nil {
			d.stats.FilterRuns += uint64(k)
			for slot, i := range chunk {
				if mask>>uint(slot)&1 != 0 {
					accept(i)
				} else {
					still = append(still, i)
				}
			}
			pending = pending[k:]
			continue
		}
		d.batchStats.Traps++
		if !ep.hasVerdicts {
			// Mask-only class: the mask died with the trap, so no verdict
			// survives. Refilter the chunk through the single-frame entry;
			// a deterministic trap re-fires on exactly the frame that
			// caused it.
			for _, i := range chunk {
				ep.marshal(frames[i])
				d.stats.FilterRuns++
				d.batchStats.Refiltered++
				ok, ferr := ep.filter(uint32(len(frames[i])))
				switch {
				case ferr != nil:
					ep.Errors++
					ep.LastErr = ferr
					still = append(still, i)
				case ok:
					accept(i)
				default:
					still = append(still, i)
				}
			}
			pending = pending[k:]
			continue
		}
		// Sentinel protocol: committed verdicts are honored; the first
		// sentinel slot is the in-flight frame, charged the trap and
		// treated as a rejection; everything after it re-batches.
		resolved := k
		for slot, i := range chunk {
			v, committed := ep.verdictAt(uint32(slot))
			d.stats.FilterRuns++
			if !committed {
				ep.Errors++
				ep.LastErr = err
				still = append(still, i)
				resolved = slot + 1
				break
			}
			if v != 0 {
				accept(i)
			} else {
				still = append(still, i)
			}
		}
		if resolved == k && ep.LastErr != err {
			// Every verdict committed before the trap fired (e.g. fuel
			// exhausted on the way out): no frame was in flight, but the
			// endpoint still surfaced the trap.
			ep.Errors++
			ep.LastErr = err
		}
		pending = pending[resolved:]
	}
	return still
}

// BatchStats returns a copy of the batched-path counters.
func (d *Demux) BatchStats() BatchStats { return d.batchStats }
