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

// SwapCell is one (technology, mode) measurement.
type SwapCell struct {
	// Mode is "direct", "slot", or "slot-swap".
	Mode   string        `json:"mode"`
	PerOp  time.Duration `json:"per_op_ns"`
	RelStd float64       `json:"rel_std"`
	N      int           `json:"n,omitempty"`
	P50    time.Duration `json:"p50,omitempty"`
	P95    time.Duration `json:"p95,omitempty"`
	P99    time.Duration `json:"p99,omitempty"`
	// Overhead is PerOp relative to the same row's direct cell.
	Overhead float64 `json:"overhead"`
	// Swaps is the number of Stage+Promote cycles executed inside the
	// measured runs (slot-swap mode only).
	Swaps uint64 `json:"swaps,omitempty"`
}

// SwapRow is one technology line.
type SwapRow struct {
	Tech      string     `json:"tech"`
	PaperName string     `json:"paper_name"`
	Cells     []SwapCell `json:"cells"`
}

// SwapResult is the swap-under-load experiment.
type SwapResult struct {
	// Ops is the invocation count of one measured run.
	Ops       int       `json:"ops"`
	SwapEvery int       `json:"swap_every"`
	Rows      []SwapRow `json:"rows"`
}

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

// RunSwapUnderLoad measures lifecycle-slot overhead per technology.
func RunSwapUnderLoad(cfg Config) (*SwapResult, error) {
	ops := cfg.EvictIters / 10
	if ops < 200 {
		ops = 200
	}
	res := &SwapResult{Ops: ops, SwapEvery: swapEvery}

	for _, id := range swapTechs {
		row := SwapRow{Tech: string(id), PaperName: tech.PaperName(id)}
		runs := cfg.Runs

		// measureMode times one run of `ops` invocations through op,
		// repeating the block until a run is long enough to trust.
		measureMode := func(mode string, op func() error) (SwapCell, error) {
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
				return SwapCell{}, err
			}
			ss, err := measureSeries(cfg.EffectiveWarmup(), runs, arm{sc, ops * iters, ops * iters})
			if err != nil {
				return SwapCell{}, err
			}
			s := ss[0]
			cell := SwapCell{
				Mode:  mode,
				PerOp: s.Mean, RelStd: s.RelStd, N: s.N,
				P50: s.P50, P95: s.P95, P99: s.P99,
			}
			if len(row.Cells) > 0 && row.Cells[0].PerOp > 0 {
				cell.Overhead = float64(s.Mean) / float64(row.Cells[0].PerOp)
			} else {
				cell.Overhead = 1
			}
			return cell, nil
		}

		// direct: the raw graft, no lifecycle.
		g, err := tech.Load(id, grafts.PacketFilter, mem.New(grafts.PFMemSize), tech.Options{VM: cfg.VM})
		if err != nil {
			return nil, fmt.Errorf("swap-under-load %s: %w", id, err)
		}
		if err := swapBenchPrep(g.Memory()); err != nil {
			return nil, err
		}
		cell, err := measureMode("direct", func() error {
			v, err := g.Invoke("filter", 60)
			if err == nil && v != 1 {
				err = fmt.Errorf("filter dropped the staged frame")
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("swap-under-load %s/direct: %w", id, err)
		}
		row.Cells = append(row.Cells, cell)

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
		cell, err = measureMode("slot", func() error {
			r, err := s.Invoke("filter", 60)
			if err == nil && r.Value != 1 {
				err = fmt.Errorf("filter dropped the staged frame")
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("swap-under-load %s/slot: %w", id, err)
		}
		row.Cells = append(row.Cells, cell)

		// slot-swap: the slot under deployment churn.
		s, err = newSlot()
		if err != nil {
			return nil, fmt.Errorf("swap-under-load %s/slot-swap: %w", id, err)
		}
		var n, ver, swaps uint64
		ver = 1
		cell, err = measureMode("slot-swap", func() error {
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
		})
		if err != nil {
			return nil, fmt.Errorf("swap-under-load %s/slot-swap: %w", id, err)
		}
		cell.Swaps = swaps
		row.Cells = append(row.Cells, cell)

		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the experiment.
func (r *SwapResult) Table() *stats.Table {
	t := &stats.Table{
		Title:  fmt.Sprintf("Swap Under Load (per-invocation cost, 1 swap per %d ops)", r.SwapEvery),
		Header: []string{"technology", "direct", "slot", "slot-swap", "swap toll"},
		Caption: "Per-invocation time for the raw graft (direct), the same graft routed\n" +
			"through a versioned lifecycle slot (slot), and the slot while a hot swap\n" +
			"commits every " + fmt.Sprint(r.SwapEvery) + " invocations (slot-swap). (xN) = overhead over direct.\n" +
			"The lifecycle corollary of the cheap-crossing thesis: a procedure-call\n" +
			"boundary stays procedure-call-priced even once it is versioned and\n" +
			"hot-swappable; the churn toll is the slot-swap minus slot delta.",
	}
	for _, row := range r.Rows {
		cells := []string{row.Tech}
		for _, c := range row.Cells {
			cells = append(cells, fmt.Sprintf("%s (x%.2f)", stats.FormatDuration(c.PerOp), c.Overhead))
		}
		if len(row.Cells) == 3 {
			toll := row.Cells[2].PerOp - row.Cells[1].PerOp
			cells = append(cells, stats.FormatDuration(toll)+"/op")
		}
		t.AddRow(cells...)
	}
	return t
}
