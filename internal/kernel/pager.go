// Package kernel is the simulated extensible kernel the grafts plug into.
// It provides the three hook-point shapes of the paper's graft taxonomy
// (§3): a demand pager whose eviction decision is a Prioritization hook, a
// stream-filter stack for Stream grafts, and a scheduler whose pick-next
// decision is a second Prioritization hook. Simulated service costs (page
// faults) are charged to a virtual clock; graft execution time is the
// quantity the benchmarks measure in real time.
package kernel

import (
	"fmt"
	"time"

	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
	"graftlab/internal/vclock"
)

// PageID names a virtual page.
type PageID uint32

// InvalidPage is returned by eviction policies to decline.
const InvalidPage = PageID(0xFFFFFFFF)

// LRUNodeSize is the byte size of one LRU chain node in graft memory:
// {pageno u32, next-node-address u32}. A next address of 0 terminates the
// chain, so NodeBase must be nonzero.
const LRUNodeSize = 8

// EvictionPolicy is the Prioritization hook: given the pager (whose LRU
// chain the policy may walk), return the page to evict instead of the
// kernel's candidate, or InvalidPage to accept the candidate.
type EvictionPolicy interface {
	ChooseVictim(p *Pager, candidate PageID) (PageID, error)
}

// EvictionPolicyFunc adapts a function to EvictionPolicy.
type EvictionPolicyFunc func(p *Pager, candidate PageID) (PageID, error)

// ChooseVictim calls f.
func (f EvictionPolicyFunc) ChooseVictim(p *Pager, candidate PageID) (PageID, error) {
	return f(p, candidate)
}

// PagerStats counts pager activity.
type PagerStats struct {
	Hits            uint64
	Faults          uint64
	Evictions       uint64
	PolicyCalls     uint64
	PolicyOverrides uint64 // policy proposed a page other than the candidate
	PolicyRejected  uint64 // policy proposal was invalid and ignored
	PolicyErrors    uint64 // policy trapped; kernel fell back to LRU
}

// PagerConfig sizes a Pager.
type PagerConfig struct {
	// Frames is the number of physical frames.
	Frames int
	// FaultTime is the virtual cost of servicing one fault (Table 3).
	FaultTime time.Duration
	// Mem, if non-nil, receives a live mirror of the LRU chain so grafts
	// can walk it; NodeBase is the address of frame 0's node.
	Mem      *mem.Memory
	NodeBase uint32
}

// Pager is a demand pager with an LRU replacement default and a
// Prioritization hook on eviction. When configured with a graft memory, it
// maintains the LRU chain as linked nodes inside that memory, so a policy
// graft traverses the very list the kernel uses — the shared-address-space
// arrangement of SPIN-style in-kernel extensions.
type Pager struct {
	cfg   PagerConfig
	clock *vclock.Clock

	// frame state
	pageOf   []PageID       // pageOf[f] = resident page, or InvalidPage
	frameOf  map[PageID]int // resident page -> frame
	freeList []int

	// intrusive LRU list over frame indices; head is least recent
	head, tail int
	next, prev []int

	policy    EvictionPolicy
	evictSpan telemetry.SpanCtx // the eviction span's context while the policy runs
	stats     PagerStats

	// read-ahead state (see readahead.go). touched[f]: -1 demand page,
	// 0 prefetched and untouched, 1 prefetched and since hit.
	readAhead    ReadAheadPolicy
	prefetchCost time.Duration
	raStats      ReadAheadStats
	touched      []int8
}

// NewPager builds a pager on clock.
func NewPager(cfg PagerConfig, clock *vclock.Clock) (*Pager, error) {
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("kernel: pager needs at least one frame, got %d", cfg.Frames)
	}
	if cfg.Mem != nil {
		if cfg.NodeBase == 0 {
			return nil, fmt.Errorf("kernel: NodeBase must be nonzero (0 terminates the chain)")
		}
		need := uint64(cfg.NodeBase) + uint64(cfg.Frames)*LRUNodeSize
		if need > uint64(cfg.Mem.Size()) {
			return nil, fmt.Errorf("kernel: LRU mirror needs %d bytes, memory has %d", need, cfg.Mem.Size())
		}
	}
	p := &Pager{
		cfg:     cfg,
		clock:   clock,
		pageOf:  make([]PageID, cfg.Frames),
		frameOf: make(map[PageID]int, cfg.Frames),
		head:    -1,
		tail:    -1,
		next:    make([]int, cfg.Frames),
		prev:    make([]int, cfg.Frames),
		touched: make([]int8, cfg.Frames),
	}
	for f := cfg.Frames - 1; f >= 0; f-- {
		p.pageOf[f] = InvalidPage
		p.next[f] = -1
		p.prev[f] = -1
		p.freeList = append(p.freeList, f)
	}
	return p, nil
}

// SetPolicy installs (or removes, with nil) the eviction hook.
func (p *Pager) SetPolicy(policy EvictionPolicy) { p.policy = policy }

// Stats returns a copy of the counters.
func (p *Pager) Stats() PagerStats { return p.stats }

// ResetStats clears the counters.
func (p *Pager) ResetStats() { p.stats = PagerStats{} }

// Resident reports whether page is in memory.
func (p *Pager) Resident(page PageID) bool {
	_, ok := p.frameOf[page]
	return ok
}

// ResidentCount reports how many frames are occupied.
func (p *Pager) ResidentCount() int { return len(p.frameOf) }

// nodeAddr is the graft-memory address of frame f's LRU node.
func (p *Pager) nodeAddr(f int) uint32 {
	return p.cfg.NodeBase + uint32(f)*LRUNodeSize
}

// HeadAddr is the graft-memory address of the LRU head node (the kernel's
// eviction candidate), or 0 if nothing is resident. This is the "pointer
// to the head of the LRU queue" the paper's eviction graft receives.
func (p *Pager) HeadAddr() uint32 {
	if p.head < 0 {
		return 0
	}
	return p.nodeAddr(p.head)
}

// EvictSpan is the context of the "kernel:evict" span while the policy
// runs inside an eviction decision, so a policy nests its own spans
// under it; it is inactive when the fault is untraced, and outside the
// policy call.
func (p *Pager) EvictSpan() telemetry.SpanCtx { return p.evictSpan }

// mirror writes frame f's node {page, next} into graft memory.
func (p *Pager) mirror(f int) {
	if p.cfg.Mem == nil {
		return
	}
	a := p.nodeAddr(f)
	p.cfg.Mem.St32U(a, uint32(p.pageOf[f]))
	nextAddr := uint32(0)
	if p.next[f] >= 0 {
		nextAddr = p.nodeAddr(p.next[f])
	}
	p.cfg.Mem.St32U(a+4, nextAddr)
}

// lruRemove unlinks f; callers must re-mirror affected nodes.
func (p *Pager) lruRemove(f int) {
	if p.prev[f] >= 0 {
		p.next[p.prev[f]] = p.next[f]
		p.mirror(p.prev[f])
	} else {
		p.head = p.next[f]
	}
	if p.next[f] >= 0 {
		p.prev[p.next[f]] = p.prev[f]
	} else {
		p.tail = p.prev[f]
	}
	p.next[f] = -1
	p.prev[f] = -1
}

// lruPushTail makes f the most recently used frame.
func (p *Pager) lruPushTail(f int) {
	p.prev[f] = p.tail
	p.next[f] = -1
	if p.tail >= 0 {
		p.next[p.tail] = f
		p.mirror(p.tail)
	} else {
		p.head = f
	}
	p.tail = f
	p.mirror(f)
}

// Touch records an access to a resident page without faulting semantics.
func (p *Pager) Touch(page PageID) bool {
	f, ok := p.frameOf[page]
	if !ok {
		return false
	}
	p.lruRemove(f)
	p.lruPushTail(f)
	return true
}

// Access references page, faulting it in if needed. It returns true on a
// hit. Faults charge FaultTime to the virtual clock.
func (p *Pager) Access(page PageID) (hit bool, err error) {
	if page == InvalidPage {
		return false, fmt.Errorf("kernel: access to invalid page")
	}
	if f, ok := p.frameOf[page]; ok {
		p.stats.Hits++
		if p.touched[f] == 0 {
			p.raStats.Useful++
			p.touched[f] = 1
		}
		p.lruRemove(f)
		p.lruPushTail(f)
		return true, nil
	}
	p.stats.Faults++
	p.clock.Advance(p.cfg.FaultTime)

	// The fault is the root of its trace: the eviction decision and any
	// prefetch evictions nest under it, and its span times the whole
	// service.
	sp := telemetry.RootSpan("kernel:fault", "kernel")
	f, err := p.grabFrame(sp.Ctx())
	if err == nil {
		p.pageOf[f] = page
		p.frameOf[page] = f
		p.touched[f] = -1 // demand page
		p.lruPushTail(f)
		err = p.prefetchAfterFault(sp.Ctx(), page)
	}
	if sp.Active() {
		sp.End(uint64(page), uint64(f), 0)
	}
	return false, err
}

// grabFrame returns a free frame, evicting if necessary; fault is the
// span context of the fault being serviced.
func (p *Pager) grabFrame(fault telemetry.SpanCtx) (int, error) {
	if n := len(p.freeList); n > 0 {
		f := p.freeList[n-1]
		p.freeList = p.freeList[:n-1]
		return f, nil
	}
	victim, err := p.chooseVictim(fault)
	if err != nil {
		return 0, err
	}
	f := p.frameOf[victim]
	if p.touched[f] == 0 {
		p.raStats.Wasted++
	}
	delete(p.frameOf, victim)
	p.lruRemove(f)
	p.stats.Evictions++
	return f, nil
}

// Eviction outcome codes, the C operand of a "kernel:evict" span.
const (
	EvictDefault  = 0 // no policy installed; kernel LRU candidate used
	EvictAccepted = 1 // policy declined or proposed the candidate
	EvictOverride = 2 // policy proposal accepted
	EvictRejected = 3 // policy proposal invalid; candidate used
	EvictErrored  = 4 // policy trapped; candidate used
)

// chooseVictim applies the Prioritization hook, validating its proposal
// exactly as the paper requires: "the kernel keeps track of candidate
// pages and graft-proposed alternates ... to ensure that an application
// does not manipulate the VM system" (§3.1). An invalid or trapping
// policy falls back to strict LRU. When the fault is traced, the
// decision is a "kernel:evict" child span carrying the candidate, the
// chosen page and the outcome code, and the policy reads the span's
// context through EvictSpan, so the trace nests fault->evict->policy->engine.
func (p *Pager) chooseVictim(fault telemetry.SpanCtx) (PageID, error) {
	if p.head < 0 {
		return InvalidPage, fmt.Errorf("kernel: no evictable frame")
	}
	candidate := p.pageOf[p.head]
	sp := telemetry.ChildSpan(fault, "kernel:evict", "kernel")
	victim, outcome := candidate, uint64(EvictDefault)
	if p.policy != nil {
		p.stats.PolicyCalls++
		p.evictSpan = sp.Ctx()
		proposal, err := p.policy.ChooseVictim(p, candidate)
		p.evictSpan = telemetry.SpanCtx{}
		switch {
		case err != nil:
			p.stats.PolicyErrors++
			outcome = EvictErrored
		case proposal == InvalidPage || proposal == candidate:
			outcome = EvictAccepted
		case !p.Resident(proposal):
			p.stats.PolicyRejected++
			outcome = EvictRejected
		default:
			p.stats.PolicyOverrides++
			victim, outcome = proposal, EvictOverride
		}
	}
	if sp.Active() {
		sp.End(uint64(candidate), uint64(victim), outcome)
	}
	return victim, nil
}

// LRUPages returns the resident pages in eviction order (head first);
// primarily for tests and native-Go policies.
func (p *Pager) LRUPages() []PageID {
	var pages []PageID
	for f := p.head; f >= 0; f = p.next[f] {
		pages = append(pages, p.pageOf[f])
	}
	return pages
}
