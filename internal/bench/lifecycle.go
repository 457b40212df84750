package bench

import (
	"fmt"
	"time"

	"graftlab/internal/grafts"
	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
)

// The swap-under-load experiment prices the live-deployment machinery:
// what does routing every invocation through a versioned lifecycle slot
// cost over calling the graft directly, and what does an ongoing stream
// of hot swaps add on top? Three modes per technology:
//
//   - direct: the raw graft invocation — the no-lifecycle floor every
//     other table measures.
//   - slot: the same invocation through lifecycle.Slot's optimistic
//     revalidation path, with a stable incumbent. The delta over direct
//     is the steady-state toll of being swappable at all.
//   - slot-swap: the slot while a deployment churn loop stages and
//     promotes a new version every swapEvery invocations. The delta
//     over slot is the amortized cost of the swaps themselves plus the
//     revalidation retries they induce.
//
// The paper's cheap-crossing thesis has a lifecycle corollary: if the
// boundary is already a procedure call, making it versioned must not
// reintroduce a protection-domain-sized toll. This table is that claim,
// measured.

// swapEvery is the churn period of the slot-swap mode: one
// Stage+Promote per this many invocations.
const swapEvery = 64

// swapTechs are the classes measured: the fastest native column, the
// loadable bytecode headline, and its verified-native AOT variant.
var swapTechs = []tech.ID{tech.CompiledUnsafe, tech.Bytecode, tech.AOT}

// swapBenchFrame writes one matching UDP frame into the filter's buffer
// so every measured invocation takes the accept path.
func swapBenchFrame(m *mem.Memory, port uint16) {
	for i := uint32(0); i < 60; i++ {
		m.St8U(grafts.PFBufAddr+i, 0)
	}
	m.St8U(grafts.PFBufAddr+12, 0x08)
	m.St8U(grafts.PFBufAddr+13, 0x00)
	m.St8U(grafts.PFBufAddr+23, 17)
	m.St8U(grafts.PFBufAddr+36, uint32(port>>8))
	m.St8U(grafts.PFBufAddr+37, uint32(port&0xff))
}

// swapBenchPrep is the deploy-time prep of every version: filter
// configured and one matching frame staged in the engine's buffer.
func swapBenchPrep(m *mem.Memory) error {
	grafts.ConfigurePacketFilter(m, 5001)
	swapBenchFrame(m, 5001)
	return nil
}

// RunSwapUnderLoad measures lifecycle-slot overhead per technology. Each
// (technology, mode) is a row named "tech/mode": per_op_ns, overhead
// (per_op_ns over the same technology's direct row) and, for slot-swap,
// swaps, the Stage+Promote cycles executed inside the measured runs. The
// scalars are the invocation count of one run and the churn period.
func RunSwapUnderLoad(cfg Config) ([]Cell, error) {
	ops := cfg.EvictIters / 10
	if ops < 200 {
		ops = 200
	}
	out := &cellList{exp: "swap-under-load"}
	out.add("", "ops", "count", float64(ops))
	out.add("", "swap_every", "count", swapEvery)

	for _, id := range swapTechs {
		var direct time.Duration

		// measureMode times one run of `ops` invocations through op,
		// repeating the block until a run is long enough to trust.
		measureMode := func(mode string, op func() error) error {
			sc := Scenario{Run: func(n int) error {
				for i := 0; i < n; i++ {
					if err := op(); err != nil {
						return err
					}
				}
				return nil
			}}
			iters, err := calibrate(sc, ops)
			if err != nil {
				return err
			}
			ss, err := measureSeries(cfg.EffectiveWarmup(), cfg.Runs, arm{sc, ops * iters, ops * iters})
			if err != nil {
				return err
			}
			s := ss[0]
			row := string(id) + "/" + mode
			out.sample(row, "per_op_ns", s.Mean, s)
			overhead := 1.0
			if mode == "direct" {
				direct = s.Mean
			} else if direct > 0 {
				overhead = float64(s.Mean) / float64(direct)
			}
			out.add(row, "overhead", "ratio", overhead)
			return nil
		}

		// direct: the raw graft, no lifecycle.
		g, err := tech.Load(id, grafts.PacketFilter, mem.New(grafts.PFMemSize), tech.Options{VM: cfg.VM})
		if err != nil {
			return nil, fmt.Errorf("swap-under-load %s: %w", id, err)
		}
		if err := swapBenchPrep(g.Memory()); err != nil {
			return nil, err
		}
		if err := measureMode("direct", func() error {
			v, err := g.Invoke("filter", 60)
			if err == nil && v != 1 {
				err = fmt.Errorf("filter dropped the staged frame")
			}
			return err
		}); err != nil {
			return nil, fmt.Errorf("swap-under-load %s/direct: %w", id, err)
		}

		// newSlot builds a fresh slot over two cached engines (artifact
		// versions alternate between them, so swaps never pay a load).
		newSlot := func() (*lifecycle.Slot, error) {
			carriers := map[uint64]lifecycle.Carrier{}
			load := func(a tech.Artifact) (lifecycle.Carrier, error) {
				key := a.Version % 2
				if c, ok := carriers[key]; ok {
					return c, nil
				}
				eng, err := a.Load(id, mem.New(grafts.PFMemSize), tech.Options{VM: cfg.VM})
				if err != nil {
					return nil, err
				}
				c := lifecycle.Single(eng)
				carriers[key] = c
				return c, nil
			}
			s := lifecycle.NewSlot("bench", id, load)
			if err := s.Activate(tech.NewArtifact(grafts.PacketFilter, 1), swapBenchPrep); err != nil {
				return nil, err
			}
			return s, nil
		}

		// slot: steady-state revalidation path, no churn.
		s, err := newSlot()
		if err != nil {
			return nil, fmt.Errorf("swap-under-load %s/slot: %w", id, err)
		}
		if err := measureMode("slot", func() error {
			r, err := s.Invoke("filter", 60)
			if err == nil && r.Value != 1 {
				err = fmt.Errorf("filter dropped the staged frame")
			}
			return err
		}); err != nil {
			return nil, fmt.Errorf("swap-under-load %s/slot: %w", id, err)
		}

		// slot-swap: the slot under deployment churn.
		s, err = newSlot()
		if err != nil {
			return nil, fmt.Errorf("swap-under-load %s/slot-swap: %w", id, err)
		}
		var n, ver, swaps uint64
		ver = 1
		if err := measureMode("slot-swap", func() error {
			n++
			if n%swapEvery == 0 {
				ver++
				if err := s.Stage(tech.NewArtifact(grafts.PacketFilter, ver), swapBenchPrep, 0); err != nil {
					return err
				}
				if err := s.Promote(); err != nil {
					return err
				}
				swaps++
			}
			r, err := s.Invoke("filter", 60)
			if err == nil && r.Value != 1 {
				err = fmt.Errorf("filter dropped the staged frame")
			}
			return err
		}); err != nil {
			return nil, fmt.Errorf("swap-under-load %s/slot-swap: %w", id, err)
		}
		out.add(string(id)+"/slot-swap", "swaps", "count", float64(swaps))
	}
	return out.cells, nil
}

// swapTable renders the experiment: one line per technology, one
// column per mode, and the churn toll (slot-swap minus slot).
func swapTable(cells []Cell) *stats.Table {
	x := indexCells(cells)
	every := int(x.v("", "swap_every"))
	t := &stats.Table{
		Title:  fmt.Sprintf("Swap Under Load (per-invocation cost, 1 swap per %d ops)", every),
		Header: []string{"technology", "direct", "slot", "slot-swap", "swap toll"},
		Caption: "Per-invocation time for the raw graft (direct), the same graft routed\n" +
			"through a versioned lifecycle slot (slot), and the slot while a hot swap\n" +
			"commits every " + fmt.Sprint(every) + " invocations (slot-swap). (xN) = overhead over direct.\n" +
			"The lifecycle corollary of the cheap-crossing thesis: a procedure-call\n" +
			"boundary stays procedure-call-priced even once it is versioned and\n" +
			"hot-swappable; the churn toll is the slot-swap minus slot delta.",
	}
	lines, modes := pivot(cells, "per_op_ns", "/")
	for _, id := range lines {
		row := []string{id}
		for _, mode := range modes {
			if c, ok := x.cell(id+"/"+mode, "per_op_ns"); ok {
				row = append(row, fmt.Sprintf("%s (x%.2f)", stats.FormatDuration(time.Duration(c.Value)), x.v(id+"/"+mode, "overhead")))
			}
		}
		if len(row) == 4 {
			toll := x.dur(id+"/slot-swap", "per_op_ns") - x.dur(id+"/slot", "per_op_ns")
			row = append(row, stats.FormatDuration(toll)+"/op")
		}
		t.AddRow(row...)
	}
	return t
}
