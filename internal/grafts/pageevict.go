package grafts

import (
	"fmt"

	"graftlab/internal/kernel"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// Graft-memory layout for the page-eviction graft. All structures sit
// above the NIL page so the explicit-NIL-check ablation runs the same
// source. The kernel (Pager) owns the LRU chain region; the application
// owns the hot list; the graft reads both.
const (
	// PEHotHeadAddr holds the address of the first hot-list node (0 ends
	// the list).
	PEHotHeadAddr = 0x1000
	// PEHotNodeBase is the application-managed hot-node arena; node i is
	// {page u32, next u32} at PEHotNodeBase + 8i.
	PEHotNodeBase = 0x1100
	// PEMaxHot bounds the hot list (the paper's is 128 entries).
	PEMaxHot = 1024
	// PELRUNodeBase is where the Pager mirrors its LRU chain.
	PELRUNodeBase = 0x10000
	// PEMemSize sizes the graft memory: the LRU region supports up to
	// (PEMemSize-PELRUNodeBase)/8 frames.
	PEMemSize = 1 << 20
)

// PageEvict is the Prioritization graft. Entry point:
//
//	evict(lruHead) -> page
//
// walks the kernel's LRU chain from lruHead and returns the first page
// not on the application's hot list, falling back to the kernel's
// candidate if every resident page is hot (§3.1: "if the candidate is on
// the hot list, the graft searches through the queue for an acceptable
// page").
var PageEvict = tech.Source{
	Name: "pageevict",
	GEL: `
// hot reports whether page is on the application's hot list, a linked
// list of {page, next} nodes rooted at 0x1000.
func hot(page) {
	var n = ld32(0x1000);
	while (n != 0) {
		if (ld32(n) == page) { return 1; }
		n = ld32(n + 4);
	}
	return 0;
}

// evict walks the LRU chain (nodes of {page, next}) and returns the
// first non-hot page, or the kernel's candidate if all are hot.
func evict(lruHead) {
	var n = lruHead;
	while (n != 0) {
		var page = ld32(n);
		if (!hot(page)) { return page; }
		n = ld32(n + 4);
	}
	return ld32(lruHead);
}
`,
	Tcl: `
proc hot {page} {
	set n [ld32 0x1000]
	while {$n != 0} {
		if {[ld32 $n] == $page} { return 1 }
		set n [ld32 [expr {$n + 4}]]
	}
	return 0
}
proc evict {lruHead} {
	set n $lruHead
	while {$n != 0} {
		set page [ld32 $n]
		if {![hot $page]} { return $page }
		set n [ld32 [expr {$n + 4}]]
	}
	return [ld32 $lruHead]
}
`,
	// The HiPEC-class rendering: the VM-queue-walking domain this
	// language class was designed for (§2). Nested list scan in 16
	// instructions.
	Hipec: map[string]string{
		"evict": `
	; r0 = LRU head node address; hot-list head pointer at 0x1000
		mov  r7, r0        ; remember the kernel candidate
		movi r6, 0
	outer:
		jeq  r0, r6, allhot
		ldw  r1, [r0+0]    ; candidate page
		movi r2, 0x1000
		ldw  r2, [r2+0]    ; hot-list head
	inner:
		jeq  r2, r6, accept
		ldw  r3, [r2+0]
		jeq  r3, r1, ishot
		ldw  r2, [r2+4]
		jmp  inner
	accept:
		ret  r1
	ishot:
		ldw  r0, [r0+4]    ; next LRU node
		jmp  outer
	allhot:
		ldw  r1, [r7+0]    ; everything hot: accept the candidate
		ret  r1
`,
	},
}

// HotList is the application side of the benchmark: it maintains the hot
// list inside graft memory as the linked list the graft traverses, and
// removes pages as they are faulted in, exactly as the model application
// of §3.1 does ("as each page is processed, its entry is removed from the
// hot list").
//
// Set lays the nodes out contiguously from PEHotNodeBase. Remove unlinks
// one node in place — a single store to its predecessor's next pointer
// (or the head) — and leaves the dead node in the arena until the next
// Set, so a removal costs one graft-memory store however long the list.
type HotList struct {
	m     *mem.Memory
	nodes []hotNode // in list order
}

// hotNode is one live page with the graft-memory address of its node.
type hotNode struct {
	page kernel.PageID
	addr uint32
}

// NewHotList binds a hot list to graft memory m.
func NewHotList(m *mem.Memory) *HotList {
	hl := &HotList{m: m}
	hl.Set(nil)
	return hl
}

// Set replaces the hot list contents, rewriting the node arena.
func (hl *HotList) Set(pages []kernel.PageID) {
	if len(pages) > PEMaxHot {
		panic(fmt.Sprintf("grafts: hot list %d exceeds capacity %d", len(pages), PEMaxHot))
	}
	hl.nodes = hl.nodes[:0]
	if len(pages) == 0 {
		hl.m.St32U(PEHotHeadAddr, 0)
		return
	}
	hl.m.St32U(PEHotHeadAddr, PEHotNodeBase)
	for i, p := range pages {
		addr := uint32(PEHotNodeBase + 8*i)
		next := uint32(0)
		if i+1 < len(pages) {
			next = addr + 8
		}
		hl.m.St32U(addr, uint32(p))
		hl.m.St32U(addr+4, next)
		hl.nodes = append(hl.nodes, hotNode{page: p, addr: addr})
	}
}

// Remove deletes page from the hot list if present, returning whether it
// was there.
func (hl *HotList) Remove(page kernel.PageID) bool {
	for i, n := range hl.nodes {
		if n.page != page {
			continue
		}
		next := uint32(0)
		if i+1 < len(hl.nodes) {
			next = hl.nodes[i+1].addr
		}
		if i == 0 {
			hl.m.St32U(PEHotHeadAddr, next)
		} else {
			hl.m.St32U(hl.nodes[i-1].addr+4, next)
		}
		hl.nodes = append(hl.nodes[:i], hl.nodes[i+1:]...)
		return true
	}
	return false
}

// Len reports the current hot list length.
func (hl *HotList) Len() int { return len(hl.nodes) }

// Contains reports whether page is hot.
func (hl *HotList) Contains(page kernel.PageID) bool {
	for _, n := range hl.nodes {
		if n.page == page {
			return true
		}
	}
	return false
}

// GraftEvictionPolicy adapts a loaded pageevict graft to the Pager's
// Prioritization hook, calling through the resolved entry point with an
// argument buffer it owns, as the kernel's fault path would.
type GraftEvictionPolicy struct {
	evict  tech.Handle
	argBuf [1]uint32
}

// NewGraftEvictionPolicy wraps g (which must export "evict").
func NewGraftEvictionPolicy(g tech.Graft) *GraftEvictionPolicy {
	return &GraftEvictionPolicy{evict: tech.Resolve(g, "evict")}
}

// ChooseVictim implements kernel.EvictionPolicy: hand the graft the LRU
// head address and let it propose a victim. When the fault is traced,
// the policy step is a "policy:evict" child of the pager's eviction
// span, and its context goes on into the engine, so the trace nests
// fault->evict->policy->engine(->upcall) whether the pager holds this
// policy or a function wrapping its ChooseVictim.
func (p *GraftEvictionPolicy) ChooseVictim(pg *kernel.Pager, candidate kernel.PageID) (kernel.PageID, error) {
	head := pg.HeadAddr()
	if head == 0 {
		return kernel.InvalidPage, nil
	}
	sp := telemetry.ChildSpan(pg.EvictSpan(), "policy:evict", "policy")
	p.argBuf[0] = head
	v, _, err := p.evict(sp.Ctx(), p.argBuf[:])
	if sp.Active() {
		var errBit uint64
		if err != nil {
			errBit = 1
		}
		sp.End(uint64(candidate), errBit, 0)
	}
	if err != nil {
		return kernel.InvalidPage, err
	}
	return kernel.PageID(v), nil
}

// NativeEvictPolicy is the hand-written Go reference: the same algorithm
// on the kernel's own structures, no graft machinery at all. It is the
// oracle the graft implementations are tested against.
type NativeEvictPolicy struct {
	Hot *HotList
}

// ChooseVictim implements kernel.EvictionPolicy.
func (p *NativeEvictPolicy) ChooseVictim(pg *kernel.Pager, candidate kernel.PageID) (kernel.PageID, error) {
	for _, page := range pg.LRUPages() {
		if !p.Hot.Contains(page) {
			return page, nil
		}
	}
	return candidate, nil
}
