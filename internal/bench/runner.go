package bench

import (
	"fmt"
	"time"

	"graftlab/internal/stats"
)

// This file is the suite runner's spine: the one measurement loop every
// graft cell goes through (warmup discarded, then N timed rounds), and
// the declarative experiment matrix. Each ExperimentSpec names the
// function that measures the experiment into cells, the one that lays
// those cells out as its table, and its gate rule, so the CLI, the
// CSV/REPORT.md exporters, and the regression gate all iterate the same
// list.

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
	// Run measures the experiment and returns its cells. ran holds the
	// cells of the experiments that already ran in this invocation:
	// figure1 reuses table2's eviction measurements from them.
	Run func(cfg Config, ran []Cell) ([]Cell, error)
	// Render lays the experiment's cells out as its paper-shaped table.
	Render func(cells []Cell) *stats.Table
	// Gate is the regression gate's rule; nil for the experiments the
	// gate does not compare.
	Gate *Gate
}

// Gate is how CompareReports judges an experiment. The bad direction
// comes from the gated cells' unit: a rate (ops/s, bytes/s) is worse
// lower, a time worse higher.
type Gate struct {
	// Metric names the gated cells: each row's cell of this metric is
	// compared with the baseline's cell of the same row.
	Metric string
	// Floor is the least relative tolerance the cells are judged at,
	// whatever the gate's own (microFloor lets them move up to 2.5x).
	Floor float64
	// Size names the scalar cell that stamps the workload a run
	// measured; "" when Metric is already per operation. Where the two
	// runs' stamps differ, rows are compared on their "normalized" cells
	// instead, or not at all when Incomparable is set, and Mismatch,
	// formatted with the baseline's and the current stamp, is the note
	// or skip that says so.
	Size, Mismatch string
	Incomparable   bool
}

// microFloor is the tolerance floor of the ns-scale micro cells
// (pktfilter-batch, swap-under-load): between-invocation drift on a
// shared runner (frequency scaling, CPU migration) reaches ~2x even
// when each run's own CV is tight, so Cohen's d cannot excuse it as
// noise. They exist to catch protocol-level regressions — losing the
// batched fast path, or the slot path growing a lock or an allocation,
// is a 5-10x move — not scheduler weather.
const microFloor = 1.5

// alone adapts an experiment that needs no earlier cells to Run.
func alone(run func(Config) ([]Cell, error)) func(Config, []Cell) ([]Cell, error) {
	return func(cfg Config, _ []Cell) ([]Cell, error) { return run(cfg) }
}

// Experiments returns the suite matrix in presentation order.
func Experiments() []ExperimentSpec {
	// sized gates a table whose raw times grow with its workload size: a
	// run at another size is compared on the normalized cells.
	sized := func(metric, size, differs string) *Gate {
		return &Gate{Metric: metric, Size: size, Mismatch: differs + ": comparing normalized, not raw"}
	}
	return []ExperimentSpec{
		{Name: "table1", Title: "Table 1: Signal Delivery", Run: alone(RunSignal), Render: signalTable},
		{Name: "table2", Title: "Table 2: VM Page Eviction", Run: alone(RunEviction), Render: evictionTable,
			Gate: sized("per_eviction_ns", "hot_list_len", "hot-list length differs (baseline %s, current %s)")},
		{Name: "table3", Title: "Table 3: Page Fault Time", Run: alone(RunFault), Render: faultTable},
		{Name: "table4", Title: "Table 4: Disk Characteristics", Run: alone(RunDisk), Render: diskTable},
		{Name: "table5", Title: "Table 5: MD5 Fingerprinting", Run: alone(RunMD5), Render: md5Table,
			Gate: sized("total_ns", "bytes", "input sizes differ (baseline %s, current %s bytes)")},
		{Name: "table6", Title: "Table 6: Logical Disk", Run: alone(RunLD), Render: ldTable,
			Gate: sized("total_ns", "writes", "write counts differ (baseline %s, current %s)")},
		{Name: "figure1", Title: "Figure 1: Upcall Break-Even", Run: RunFigure1, Render: figure1Table},
		// Per-packet and per-op times are intensive, so they compare
		// across trace and workload sizes.
		{Name: "pktfilter", Title: "Packet Filter", Run: alone(RunPacketFilter), Render: packetFilterTable,
			Gate: &Gate{Metric: "per_packet_ns"}},
		{Name: "pktfilter-batch", Title: "Batched Packet Filter", Run: alone(RunPacketFilterBatch), Render: pfBatchTable,
			Gate: &Gate{Metric: "per_packet_ns", Floor: microFloor}},
		{Name: "swap-under-load", Title: "Swap Under Load", Run: alone(RunSwapUnderLoad), Render: swapTable,
			Gate: &Gate{Metric: "per_op_ns", Floor: microFloor}},
		{Name: "ablation", Title: "Ablations", Run: alone(RunAblation), Render: ablationTable},
		// The closed-loop throughputs are a model of the service time:
		// runs with different service times are not comparable. They
		// carry no variance, so the gate falls back to the pure ratio
		// (zero-variance d is ±Inf: the effect test always passes).
		{Name: "scale", Title: "Table 7: Multicore Graft Throughput", Concurrent: true,
			Run: alone(RunScale), Render: scaleTable,
			Gate: &Gate{
				Metric: "ops_per_sec", Size: "service_time_ns", Incomparable: true,
				Mismatch: "service_time mismatch (baseline %s, current %s): closed-loop throughputs are not comparable",
			}},
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
