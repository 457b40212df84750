package main

import (
	"fmt"
	"os"
	"time"

	"graftlab/internal/btree"
	"graftlab/internal/grafts"
	"graftlab/internal/kernel"
	"graftlab/internal/mem"
	"graftlab/internal/vclock"
	"graftlab/internal/workload"
)

// fault-path: one request is one page reference of the paper's model
// application, the TPC-B non-keyed scan. The application updates its hot
// list, then references the page on a pager whose eviction hook is the
// pageevict graft. Over three or more subtrees on 200 frames nearly every
// reference faults, and each fault runs one hot-list search that accepts
// the LRU candidate: Table 2's per-eviction measurement inside a whole
// fault.
const (
	faultFrames   = 200
	faultSubtrees = 3
	faultTime     = 14 * time.Millisecond // virtual; charged to the pager's clock
)

type faultPath struct {
	seed    uint64
	corrupt bool
	refs    [][]btree.Access // per tenant: one cycle of its scan

	draw *rounds
	rec  *recorder
	ts   []*faultTenant
}

type faultTenant struct {
	class int
	pager *kernel.Pager
	hot   *grafts.HotList
	refs  []btree.Access
	pos   int // references served since set-up
}

func newFaultPath(seed uint64, corrupt bool) (*faultPath, error) {
	tree, err := btree.Build(btree.TPCBConfig())
	if err != nil {
		return nil, err
	}
	w := &faultPath{seed: seed, corrupt: corrupt}
	rng := workload.NewRNG(seed)
	for range allClasses {
		start := int(rng.Uint32n(uint32(len(tree.L3) - faultSubtrees + 1)))
		var refs []btree.Access
		if err := tree.Scan(start, start+faultSubtrees, func(a btree.Access) error {
			refs = append(refs, a)
			return nil
		}); err != nil {
			return nil, err
		}
		w.refs = append(w.refs, refs)
	}
	return w, nil
}

func (w *faultPath) classes() []int {
	cs := make([]int, len(allClasses))
	for c := range cs {
		cs[c] = c
	}
	return cs
}

func (w *faultPath) setup(st *stack) error {
	w.rec = st.rec
	w.ts = nil
	for c := range allClasses {
		m := mem.New(grafts.PEMemSize)
		pager, err := kernel.NewPager(kernel.PagerConfig{
			Frames:    faultFrames,
			FaultTime: faultTime,
			Mem:       m,
			NodeBase:  grafts.PELRUNodeBase,
		}, &vclock.Clock{})
		if err != nil {
			return err
		}
		hot := grafts.NewHotList(m)
		_, g, err := st.host("fault."+allClasses[c].name, c, grafts.PageEvict, m)
		if err != nil {
			return err
		}
		var policy kernel.EvictionPolicy = grafts.NewGraftEvictionPolicy(g)
		if st.rec != nil {
			policy = spanPolicy{inner: policy, r: st.rec}
		}
		pager.SetPolicy(policy)
		w.ts = append(w.ts, &faultTenant{class: c, pager: pager, hot: hot, refs: w.refs[c]})
	}
	w.draw = newRounds(len(w.ts), w.seed^0x6a09e667f3bcc908)
	return nil
}

func (w *faultPath) prepare() {}

func (w *faultPath) pick() int { return w.draw.pick() }

// reference is the application's step for one page reference: keep the
// hot list current, then touch the page.
func reference(hot *grafts.HotList, pager *kernel.Pager, a btree.Access) error {
	if a.HotList != nil {
		hot.Set(a.HotList)
	} else {
		hot.Remove(a.Page)
	}
	_, err := pager.Access(a.Page)
	return err
}

func (w *faultPath) serve(t int) error {
	ft := w.ts[t]
	a := ft.refs[ft.pos%len(ft.refs)]
	ft.pos++
	if w.rec == nil {
		return reference(ft.hot, ft.pager, a)
	}
	i := w.rec.begin(layerHotlist, -1)
	if a.HotList != nil {
		ft.hot.Set(a.HotList)
	} else {
		ft.hot.Remove(a.Page)
	}
	w.rec.end(i)
	i = w.rec.begin(layerPager, -1)
	_, err := ft.pager.Access(a.Page)
	w.rec.end(i)
	return err
}

func (w *faultPath) check(int) bool { return true }

func (w *faultPath) between(time.Duration, time.Duration) int64 { return 0 }

func (w *faultPath) finished(pastDeadline bool) bool { return pastDeadline }

// verify replays each tenant's reference string through a pager whose
// policy is grafts.NativeEvictPolicy; the counters must match exactly.
func (w *faultPath) verify(served []int64) int64 {
	var wrong int64
	for t, ft := range w.ts {
		want, err := nativeFaults(ft.refs, ft.pos)
		if w.corrupt && t == 0 {
			want.Faults++
		}
		if got := ft.pager.Stats(); err != nil || got != want {
			fmt.Fprintf(os.Stderr, "fault-path oracle: tenant %s pager stats %+v, native reference %+v (%v)\n",
				allClasses[ft.class].name, got, want, err)
			wrong += served[t]
		}
	}
	return wrong
}

// nativeFaults runs the first n references of refs (cycled) against the
// hand-written reference policy.
func nativeFaults(refs []btree.Access, n int) (kernel.PagerStats, error) {
	pager, err := kernel.NewPager(kernel.PagerConfig{Frames: faultFrames, FaultTime: faultTime}, &vclock.Clock{})
	if err != nil {
		return kernel.PagerStats{}, err
	}
	hot := grafts.NewHotList(mem.New(grafts.PEMemSize))
	pager.SetPolicy(&grafts.NativeEvictPolicy{Hot: hot})
	for i := 0; i < n; i++ {
		if err := reference(hot, pager, refs[i%len(refs)]); err != nil {
			return kernel.PagerStats{}, err
		}
	}
	return pager.Stats(), nil
}

func (w *faultPath) layers(m map[string]float64) {
	var faults, refs, errs uint64
	for _, ft := range w.ts {
		s := ft.pager.Stats()
		faults += s.Faults
		refs += s.Faults + s.Hits
		errs += s.PolicyErrors
	}
	m["kernel.pager.fault_ratio"] = ratio(float64(faults), float64(refs))
	m["kernel.pager.policy_errors"] = float64(errs)
}
