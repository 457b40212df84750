package grafts

import (
	"fmt"
	"testing"

	"graftlab/internal/btree"
	"graftlab/internal/kernel"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/vclock"
	"graftlab/internal/workload"
)

// evictTechs: every technology carries this graft (it is tiny).
var evictTechs = []tech.ID{
	tech.CompiledUnsafe, tech.CompiledSafe, tech.CompiledSafeNil,
	tech.CompiledSFI, tech.CompiledSFIFull,
	tech.NativeUnsafe, tech.NativeSafe, tech.NativeSafeNil,
	tech.SFI, tech.SFIFull, tech.Bytecode, tech.Script, tech.Domain,
}

// buildPagerWithGraft wires a pager whose LRU chain lives in graft memory
// and whose eviction policy is the pageevict graft under id.
func buildPagerWithGraft(t *testing.T, id tech.ID, frames int) (*kernel.Pager, *HotList, *vclock.Clock) {
	t.Helper()
	m := mem.New(PEMemSize)
	g, err := tech.Load(id, PageEvict, m, tech.Options{})
	if err != nil {
		t.Fatalf("load pageevict under %s: %v", id, err)
	}
	clock := &vclock.Clock{}
	p, err := kernel.NewPager(kernel.PagerConfig{
		Frames:   frames,
		Mem:      m,
		NodeBase: PELRUNodeBase,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPolicy(NewGraftEvictionPolicy(g))
	return p, NewHotList(m), clock
}

func TestEvictGraftSparesHotPages(t *testing.T) {
	for _, id := range evictTechs {
		t.Run(string(id), func(t *testing.T) {
			p, hot, _ := buildPagerWithGraft(t, id, 4)
			// Fill frames with pages 1..4; LRU order is 1,2,3,4.
			for pg := kernel.PageID(1); pg <= 4; pg++ {
				if _, err := p.Access(pg); err != nil {
					t.Fatal(err)
				}
			}
			// Pages 1 and 2 are hot; faulting 5 must evict 3 (first
			// non-hot in LRU order), not the LRU head 1.
			hot.Set([]kernel.PageID{1, 2})
			if _, err := p.Access(5); err != nil {
				t.Fatal(err)
			}
			if !p.Resident(1) || !p.Resident(2) {
				t.Fatalf("hot page evicted; resident: %v", p.LRUPages())
			}
			if p.Resident(3) {
				t.Fatalf("expected 3 evicted; resident: %v", p.LRUPages())
			}
			st := p.Stats()
			if st.PolicyCalls != 1 || st.PolicyOverrides != 1 {
				t.Errorf("stats = %+v", st)
			}
		})
	}
}

func TestEvictGraftAcceptsCandidateWhenNothingHot(t *testing.T) {
	p, hot, _ := buildPagerWithGraft(t, tech.NativeUnsafe, 3)
	for pg := kernel.PageID(10); pg < 13; pg++ {
		if _, err := p.Access(pg); err != nil {
			t.Fatal(err)
		}
	}
	hot.Set(nil)
	if _, err := p.Access(99); err != nil {
		t.Fatal(err)
	}
	if p.Resident(10) {
		t.Fatalf("LRU head should have been evicted; resident %v", p.LRUPages())
	}
	if st := p.Stats(); st.PolicyOverrides != 0 {
		t.Errorf("override counted for candidate acceptance: %+v", st)
	}
}

func TestEvictGraftAllHotFallsBackToCandidate(t *testing.T) {
	p, hot, _ := buildPagerWithGraft(t, tech.NativeUnsafe, 3)
	for pg := kernel.PageID(1); pg <= 3; pg++ {
		if _, err := p.Access(pg); err != nil {
			t.Fatal(err)
		}
	}
	hot.Set([]kernel.PageID{1, 2, 3})
	if _, err := p.Access(4); err != nil {
		t.Fatal(err)
	}
	// All hot: the graft returns the kernel's candidate (page 1).
	if p.Resident(1) {
		t.Fatalf("candidate not evicted; resident %v", p.LRUPages())
	}
}

// TestEvictGraftMatchesOracle drives a pager pair — graft policy vs the
// hand-written Go policy — through the TPC-B trace and requires identical
// eviction behaviour.
func TestEvictGraftMatchesOracle(t *testing.T) {
	tree := btree.MustBuild(btree.Config{L2Pages: 2, L3Pages: 10, Fanout: 32, DataBase: 100})

	run := func(useGraft bool) (kernel.PagerStats, []kernel.PageID) {
		m := mem.New(PEMemSize)
		clock := &vclock.Clock{}
		p, err := kernel.NewPager(kernel.PagerConfig{
			Frames: 48, Mem: m, NodeBase: PELRUNodeBase,
		}, clock)
		if err != nil {
			t.Fatal(err)
		}
		hot := NewHotList(m)
		if useGraft {
			g, err := tech.Load(tech.NativeUnsafe, PageEvict, m, tech.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p.SetPolicy(NewGraftEvictionPolicy(g))
		} else {
			p.SetPolicy(&NativeEvictPolicy{Hot: hot})
		}
		err = tree.Scan(0, len(tree.L3), func(a btree.Access) error {
			if a.HotList != nil {
				hot.Set(a.HotList)
			}
			if _, err := p.Access(a.Page); err != nil {
				return err
			}
			hot.Remove(a.Page)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return p.Stats(), p.LRUPages()
	}

	gs, glru := run(true)
	ns, nlru := run(false)
	if gs.Faults != ns.Faults || gs.Evictions != ns.Evictions || gs.PolicyOverrides != ns.PolicyOverrides {
		t.Errorf("graft stats %+v != native stats %+v", gs, ns)
	}
	if len(glru) != len(nlru) {
		t.Fatalf("LRU lengths differ: %d vs %d", len(glru), len(nlru))
	}
	for i := range glru {
		if glru[i] != nlru[i] {
			t.Fatalf("LRU diverges at %d: %v vs %v", i, glru, nlru)
		}
	}
}

func TestHotListMaintenance(t *testing.T) {
	m := mem.New(PEMemSize)
	hl := NewHotList(m)
	if hl.Len() != 0 || m.Ld32U(PEHotHeadAddr) != 0 {
		t.Fatal("fresh hot list not empty")
	}
	hl.Set([]kernel.PageID{10, 20, 30})
	if hl.Len() != 3 || !hl.Contains(20) || hl.Contains(99) {
		t.Fatal("Set/Contains broken")
	}
	// Verify the in-memory linked list shape.
	n := m.Ld32U(PEHotHeadAddr)
	var got []uint32
	for n != 0 {
		got = append(got, m.Ld32U(n))
		n = m.Ld32U(n + 4)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("list = %v", got)
	}
	if !hl.Remove(20) || hl.Remove(20) {
		t.Fatal("Remove broken")
	}
	if hl.Len() != 2 || hl.Contains(20) {
		t.Fatal("Remove did not update")
	}
	n = m.Ld32U(PEHotHeadAddr)
	got = got[:0]
	for n != 0 {
		got = append(got, m.Ld32U(n))
		n = m.Ld32U(n + 4)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("after remove: %v", got)
	}

	// Removals unlink in place: head, middle and tail removals interleaved
	// with Set must leave the walk through graft memory equal to the
	// Go-side list every time.
	walkMatches := func(step string) {
		t.Helper()
		var walk []kernel.PageID
		for n := m.Ld32U(PEHotHeadAddr); n != 0; n = m.Ld32U(n + 4) {
			if len(walk) > PEMaxHot {
				t.Fatalf("%s: hot list walk does not terminate", step)
			}
			walk = append(walk, kernel.PageID(m.Ld32U(n)))
		}
		if len(walk) != hl.Len() {
			t.Fatalf("%s: graft memory walk %v, Go-side list %v", step, walk, hl.nodes)
		}
		for i, n := range hl.nodes {
			if walk[i] != n.page || !hl.Contains(n.page) {
				t.Fatalf("%s: graft memory walk %v, Go-side list %v", step, walk, hl.nodes)
			}
		}
	}
	hl.Set([]kernel.PageID{1, 2, 3, 4, 5, 6})
	walkMatches("set")
	for _, step := range []struct {
		remove kernel.PageID
		set    []kernel.PageID
	}{
		{remove: 1}, // head
		{remove: 4}, // middle
		{remove: 6}, // tail
		{remove: 9}, // absent: nothing changes
		{set: []kernel.PageID{7, 8, 9}},
		{remove: 8}, // middle of the rewritten arena
		{remove: 9}, // tail, leaving a single node
		{remove: 7}, // last node: empty list
		{set: []kernel.PageID{11, 12}},
		{remove: 11}, // head again
		{set: []kernel.PageID{13}},
	} {
		name := fmt.Sprintf("remove %d", step.remove)
		if step.set != nil {
			name = fmt.Sprintf("set %v", step.set)
			hl.Set(step.set)
		} else {
			was := hl.Contains(step.remove)
			if hl.Remove(step.remove) != was || hl.Contains(step.remove) {
				t.Fatalf("%s: Remove result disagrees with Contains", name)
			}
		}
		walkMatches(name)
	}
	if hl.Len() != 1 || !hl.Contains(13) {
		t.Fatalf("final list %v, want [13]", hl.nodes)
	}
}

// TestEvictGraftRandomizedAgainstOracle fuzzes access patterns and checks
// the graft always proposes the same victim as the Go reference.
func TestEvictGraftRandomizedAgainstOracle(t *testing.T) {
	m := mem.New(PEMemSize)
	clock := &vclock.Clock{}
	p, err := kernel.NewPager(kernel.PagerConfig{Frames: 16, Mem: m, NodeBase: PELRUNodeBase}, clock)
	if err != nil {
		t.Fatal(err)
	}
	hot := NewHotList(m)
	g, err := tech.Load(tech.Bytecode, PageEvict, m, tech.Options{})
	if err != nil {
		t.Fatal(err)
	}
	graftPol := NewGraftEvictionPolicy(g)
	oracle := &NativeEvictPolicy{Hot: hot}

	rng := workload.NewRNG(42)
	for i := 0; i < 2000; i++ {
		pg := kernel.PageID(rng.Uint32n(64))
		if _, err := p.Access(pg); err != nil {
			t.Fatal(err)
		}
		if rng.Uint32n(4) == 0 {
			var hs []kernel.PageID
			for j := uint32(0); j < rng.Uint32n(10); j++ {
				hs = append(hs, kernel.PageID(rng.Uint32n(64)))
			}
			hot.Set(hs)
		}
		if p.ResidentCount() == 16 {
			lru := p.LRUPages()
			cand := lru[0]
			gv, gerr := graftPol.ChooseVictim(p, cand)
			nv, nerr := oracle.ChooseVictim(p, cand)
			if gerr != nil || nerr != nil {
				t.Fatalf("iter %d: errors %v %v", i, gerr, nerr)
			}
			if gv != nv {
				t.Fatalf("iter %d: graft=%d oracle=%d lru=%v", i, gv, nv, lru)
			}
		}
	}
}
