package bench

import (
	"fmt"
	"time"

	"graftlab/internal/stats"
)

// This file is the suite runner's spine: the one measurement loop every
// graft cell goes through (warmup discarded, then N timed rounds), and
// the declarative experiment matrix that replaces cmd/graftbench's
// hand-rolled dispatch. Each ExperimentSpec knows how to populate its
// slot of a Report and how to render it, so the CLI, the CSV/REPORT.md
// exporters, and the regression gate all iterate the same list.

// An arm is one timed side of a cell: n operations of a scenario per
// run, whose time divided by per is the run's sample (per = n for the
// time of one operation, 1 for the whole run's).
type arm struct {
	s      Scenario
	n, per int
}

// measureSeries times one matrix cell: warmup+runs rounds, each running
// every arm once — the arm's Reset untimed, then its n operations under
// the clock. The arm that runs first rotates from round to round, so of
// two arms each leads every other round and neither always runs right
// after the other. Only the measurement rounds are summarized: the warmup
// samples, which paid cache fills and frequency ramp, are dropped via
// stats.DiscardWarmup and never reach an exported Sample. An error from
// any arm ends the series. It returns one Sample per arm, in arm order.
func measureSeries(warmup, runs int, arms ...arm) ([]stats.Sample, error) {
	if warmup < 0 {
		warmup = 0
	}
	times := make([][]time.Duration, len(arms))
	for r := 0; r < warmup+runs; r++ {
		for k := range arms {
			i := (r + k) % len(arms)
			a := arms[i]
			if a.s.Reset != nil {
				if err := a.s.Reset(); err != nil {
					return nil, err
				}
			}
			t0 := time.Now()
			err := a.s.Run(a.n)
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			times[i] = append(times[i], d/time.Duration(a.per))
		}
	}
	out := make([]stats.Sample, len(arms))
	for i, t := range times {
		out[i] = stats.Summarize(stats.DiscardWarmup(t, warmup))
	}
	return out, nil
}

// minRunTime is the least wall time one timed run of a ns-scale cell
// must cover: shorter samples are dominated by timer granularity and
// scheduler jitter.
const minRunTime = 2 * time.Millisecond

// calibrate times one run of n operations of sc, a one-round series,
// and returns how many such runs one timed run must repeat (at most 500)
// to cover minRunTime.
func calibrate(sc Scenario, n int) (int, error) {
	cal, err := measureSeries(0, 1, arm{sc, n, 1})
	if err != nil {
		return 0, err
	}
	if dt := cal[0].Mean; dt > 0 && dt < minRunTime {
		return min(int(minRunTime/dt)+1, 500), nil
	}
	return 1, nil
}

// ExperimentSpec is one row of the declarative experiment matrix.
type ExperimentSpec struct {
	// Name is the -experiment selector ("table5", "pktfilter", ...).
	Name string
	// Title is the human experiment name used in generated reports.
	Title string
	// Concurrent experiments are excluded from "all": their model
	// interleaves goroutines with the single-threaded tables' timing
	// loops, so they run only when selected explicitly.
	Concurrent bool
	// Run populates the experiment's slot in the report.
	Run func(cfg Config, r *Report) error
	// Render returns the experiment's text table, or "" when its slot in
	// the report is empty.
	Render func(r *Report) string
}

// Experiments returns the suite matrix in presentation order.
func Experiments() []ExperimentSpec {
	return []ExperimentSpec{
		{
			Name: "table1", Title: "Table 1: Signal Delivery",
			Run: func(cfg Config, r *Report) error {
				res, err := RunSignal(cfg)
				r.Signal = res
				return err
			},
			Render: func(r *Report) string {
				if r.Signal == nil {
					return ""
				}
				return r.Signal.Table().String()
			},
		},
		{
			Name: "table2", Title: "Table 2: VM Page Eviction",
			Run: func(cfg Config, r *Report) error {
				res, err := RunEviction(cfg)
				r.Evict = res
				return err
			},
			Render: func(r *Report) string {
				if r.Evict == nil {
					return ""
				}
				return r.Evict.Table().String()
			},
		},
		{
			Name: "table3", Title: "Table 3: Page Fault Time",
			Run: func(cfg Config, r *Report) error {
				res, err := RunFault(cfg)
				r.Fault = res
				return err
			},
			Render: func(r *Report) string {
				if r.Fault == nil {
					return ""
				}
				return r.Fault.Table().String()
			},
		},
		{
			Name: "table4", Title: "Table 4: Disk Characteristics",
			Run: func(cfg Config, r *Report) error {
				res, err := RunDisk(cfg)
				r.Disk = res
				return err
			},
			Render: func(r *Report) string {
				if r.Disk == nil {
					return ""
				}
				return r.Disk.Table().String()
			},
		},
		{
			Name: "table5", Title: "Table 5: MD5 Fingerprinting",
			Run: func(cfg Config, r *Report) error {
				res, err := RunMD5(cfg)
				r.MD5 = res
				return err
			},
			Render: func(r *Report) string {
				if r.MD5 == nil {
					return ""
				}
				return r.MD5.Table().String()
			},
		},
		{
			Name: "table6", Title: "Table 6: Logical Disk",
			Run: func(cfg Config, r *Report) error {
				res, err := RunLD(cfg)
				r.LD = res
				return err
			},
			Render: func(r *Report) string {
				if r.LD == nil {
					return ""
				}
				return r.LD.Table().String()
			},
		},
		{
			Name: "figure1", Title: "Figure 1: Upcall Break-Even",
			Run: func(cfg Config, r *Report) error {
				// Figure 1 is derived from the Table 2 measurement; reuse
				// it when table2 already ran in this invocation.
				ev := r.Evict
				if ev == nil {
					var err error
					if ev, err = RunEviction(cfg); err != nil {
						return err
					}
				}
				fig, err := RunFigure1(cfg, ev)
				r.Figure1 = fig
				return err
			},
			Render: func(r *Report) string {
				if r.Figure1 == nil {
					return ""
				}
				return r.Figure1.Table().String()
			},
		},
		{
			Name: "pktfilter", Title: "Packet Filter",
			Run: func(cfg Config, r *Report) error {
				res, err := RunPacketFilter(cfg)
				r.PacketFilter = res
				return err
			},
			Render: func(r *Report) string {
				if r.PacketFilter == nil {
					return ""
				}
				return r.PacketFilter.Table().String()
			},
		},
		{
			Name: "pktfilter-batch", Title: "Batched Packet Filter",
			Run: func(cfg Config, r *Report) error {
				res, err := RunPacketFilterBatch(cfg)
				r.PFBatch = res
				return err
			},
			Render: func(r *Report) string {
				if r.PFBatch == nil {
					return ""
				}
				return r.PFBatch.Table().String()
			},
		},
		{
			Name: "swap-under-load", Title: "Swap Under Load",
			Run: func(cfg Config, r *Report) error {
				res, err := RunSwapUnderLoad(cfg)
				r.Swap = res
				return err
			},
			Render: func(r *Report) string {
				if r.Swap == nil {
					return ""
				}
				return r.Swap.Table().String()
			},
		},
		{
			Name: "ablation", Title: "Ablations",
			Run: func(cfg Config, r *Report) error {
				res, err := RunAblation(cfg)
				r.Ablation = res
				return err
			},
			Render: func(r *Report) string {
				if r.Ablation == nil {
					return ""
				}
				return r.Ablation.Table().String()
			},
		},
		{
			Name: "scale", Title: "Table 7: Multicore Graft Throughput",
			Concurrent: true,
			Run: func(cfg Config, r *Report) error {
				res, err := RunScale(cfg)
				r.Scale = res
				return err
			},
			Render: func(r *Report) string {
				if r.Scale == nil {
					return ""
				}
				return r.Scale.Table().String()
			},
		},
	}
}

// FindExperiment returns the spec for name, or an error naming the valid
// selectors.
func FindExperiment(name string) (ExperimentSpec, error) {
	for _, s := range Experiments() {
		if s.Name == name {
			return s, nil
		}
	}
	return ExperimentSpec{}, fmt.Errorf("unknown experiment %q", name)
}
