package kernel

// Read-ahead is §3.3's second Black Box example: "if the application
// knows ahead of time the order in which blocks of a file will be read,
// the kernel can use this information to make read-ahead decisions ...
// if the kernel uses heuristics rather than application knowledge, it
// can not cope with arbitrary application behavior." Table 3's caption
// also flags the fault-time read-ahead policy as "an obvious candidate
// for grafting".
//
// The hook lives on the Pager: after servicing a fault, the kernel asks
// the policy which additional pages to bring in on the same disk
// operation (they share the seek the fault already paid, so prefetched
// pages are charged only transfer time).

import (
	"time"

	"graftlab/internal/telemetry"
)

// ReadAheadPolicy proposes pages to prefetch after faulting page in.
// Returning nil prefetches nothing. Proposals that are already resident
// are skipped; the kernel caps the batch at MaxReadAhead.
type ReadAheadPolicy interface {
	Prefetch(faulted PageID) []PageID
}

// ReadAheadFunc adapts a function to ReadAheadPolicy.
type ReadAheadFunc func(faulted PageID) []PageID

// Prefetch calls f.
func (f ReadAheadFunc) Prefetch(faulted PageID) []PageID { return f(faulted) }

// MaxReadAhead bounds one prefetch batch (the Alpha in Table 3 brought in
// 16 pages per fault).
const MaxReadAhead = 16

// ReadAheadStats counts prefetch activity.
type ReadAheadStats struct {
	Prefetched uint64 // pages brought in ahead of demand
	Useful     uint64 // prefetched pages later hit before eviction
	Wasted     uint64 // prefetched pages evicted untouched
}

// SetReadAhead installs (or clears, with nil) the prefetch hook.
// PrefetchCost is charged per prefetched page (transfer only; the fault
// already paid the seek); zero uses FaultTime/8.
func (p *Pager) SetReadAhead(policy ReadAheadPolicy, perPageCost time.Duration) {
	p.readAhead = policy
	if perPageCost == 0 {
		perPageCost = p.cfg.FaultTime / 8
	}
	p.prefetchCost = perPageCost
}

// ReadAheadStats returns a copy of the prefetch counters.
func (p *Pager) ReadAheadStats() ReadAheadStats { return p.raStats }

// prefetchAfterFault runs the hook for the page just faulted in; fault
// is that fault's span context, which prefetch evictions nest under.
func (p *Pager) prefetchAfterFault(fault telemetry.SpanCtx, page PageID) error {
	if p.readAhead == nil {
		return nil
	}
	proposals := p.readAhead.Prefetch(page)
	count := 0
	for _, pre := range proposals {
		if count >= MaxReadAhead {
			break
		}
		if pre == InvalidPage || pre == page {
			continue
		}
		if _, resident := p.frameOf[pre]; resident {
			continue
		}
		f, err := p.grabFrame(fault)
		if err != nil {
			return err
		}
		p.pageOf[f] = pre
		p.frameOf[pre] = f
		p.touched[f] = 0
		// Prefetched pages enter at the MRU end like demand pages; if
		// they entered at the LRU head, the very next prefetch in the
		// batch would evict them. The Wasted counter still exposes junk
		// prefetches when they age out untouched.
		p.lruPushTail(f)
		p.clock.Advance(p.prefetchCost)
		p.raStats.Prefetched++
		count++
	}
	return nil
}
