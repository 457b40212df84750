package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The suite exporter flattens a Report — whose per-experiment result
// types mirror the paper's table shapes — into a uniform cell matrix:
// one line per (experiment, row, metric) with the run count, coefficient
// of variation, tail percentiles, and a stability flag. results.csv is
// this matrix verbatim; REPORT.md (reportmd.go) renders it with the
// methodology header and effect-size verdicts; the regression gate
// (compare.go) compares the cells that carry a Gate. Flatten is the one
// reader of a report's typed results.

// DefaultCVThreshold is the stability bar: a cell whose coefficient of
// variation exceeds it is flagged unstable in results.csv and REPORT.md,
// and should not be trusted for fine-grained comparisons. 15% is lax by
// laboratory standards but realistic for shared CI runners.
const DefaultCVThreshold = 0.15

// Cell is one measurement of the flattened suite matrix.
type Cell struct {
	Experiment string  `json:"experiment"`
	Row        string  `json:"row,omitempty"` // "" for experiment-level scalars
	Metric     string  `json:"metric"`
	Unit       string  `json:"unit"` // "ns", "ops/s", "bytes/s"
	Value      float64 `json:"value"`
	// N is the measurement-run count (warmup excluded); 0 when the
	// metric is a derived scalar without repeated runs.
	N  int     `json:"n,omitempty"`
	CV float64 `json:"cv"`
	// Tail percentiles in ns; zero when the metric doesn't record them.
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
	// Stable is CV <= the flattening threshold.
	Stable bool `json:"stable"`
	// Gate is the regression gate's rule for the cell; nil for the
	// cells the gate does not compare.
	Gate *Gate `json:"-"`
}

// Gate is how CompareReports judges a cell, declared by Flatten on the
// one metric per experiment it compares. The bad direction comes from
// the cell's unit: a rate (ops/s, bytes/s) is worse lower, a time worse
// higher.
type Gate struct {
	// Floor is the least relative tolerance the cell is judged at,
	// whatever the gate's own (microFloor lets it move up to 2.5x).
	Floor float64
	// Size stamps the workload the run measured; "" when the metric is
	// already per operation. Where the two runs' stamps differ, the
	// cells are compared on Normalized instead of Value, or not at all
	// when Incomparable is set, and Mismatch, formatted with the
	// baseline's and the current stamp, is the note or skip that says so.
	Size, Mismatch string
	Incomparable   bool
	Normalized     float64
}

// microFloor is the tolerance floor of the ns-scale micro cells
// (pktfilter-batch, swap-under-load): between-invocation drift on a
// shared runner (frequency scaling, CPU migration) reaches ~2x even
// when each run's own CV is tight, so Cohen's d cannot excuse it as
// noise. They exist to catch protocol-level regressions — losing the
// batched fast path, or the slot path growing a lock or an allocation,
// is a 5-10x move — not scheduler weather.
const microFloor = 1.5

// Flatten turns a report into the uniform cell matrix. cvThreshold <= 0
// means DefaultCVThreshold.
func Flatten(r *Report, cvThreshold float64) []Cell {
	if cvThreshold <= 0 {
		cvThreshold = DefaultCVThreshold
	}
	var cells []Cell
	add := func(c Cell) {
		c.Stable = c.CV <= cvThreshold
		cells = append(cells, c)
	}
	durCell := func(exp, row, metric string, v time.Duration, cv float64, n int, p50, p95, p99 time.Duration, g *Gate) {
		add(Cell{
			Experiment: exp, Row: row, Metric: metric, Unit: "ns",
			Value: float64(v), CV: cv, N: n,
			P50: float64(p50), P95: float64(p95), P99: float64(p99),
			Gate: g,
		})
	}
	// sized gates a table whose raw times grow with its workload size: a
	// run at another size is compared on the normalized column.
	sized := func(size int, mismatch string, normalized float64) *Gate {
		return &Gate{Size: strconv.Itoa(size), Mismatch: mismatch + ": comparing normalized, not raw", Normalized: normalized}
	}
	// Per-packet and per-op times are intensive, so they compare across
	// trace and workload sizes.
	perOp, micro := &Gate{}, &Gate{Floor: microFloor}
	if s := r.Signal; s != nil {
		durCell("table1", "", "crossing_ns", s.Crossing, 0, 0, 0, 0, 0, nil)
		if s.PerSignal > 0 {
			durCell("table1", "", "per_signal_ns", s.PerSignal, 0, 0, 0, 0, 0, nil)
		}
	}
	if e := r.Evict; e != nil {
		for _, row := range e.Rows {
			durCell("table2", row.Tech, "per_eviction_ns", row.Per, row.RelStd, row.N, row.P50, row.P95, row.P99,
				sized(e.HotListLen, "hot-list length differs (baseline %s, current %s)", row.Normalized))
		}
	}
	if f := r.Fault; f != nil {
		durCell("table3", "", "measured_fault_ns", f.Measured, 0, 0, 0, 0, 0, nil)
		durCell("table3", "", "simulated_fault_ns", f.Simulated, 0, 0, 0, 0, 0, nil)
	}
	if d := r.Disk; d != nil {
		if d.MeasuredBW > 0 {
			add(Cell{Experiment: "table4", Metric: "measured_bw", Unit: "bytes/s", Value: float64(d.MeasuredBW)})
		}
		add(Cell{Experiment: "table4", Metric: "model_bw", Unit: "bytes/s", Value: float64(d.ModelBW)})
	}
	if m := r.MD5; m != nil {
		for _, row := range m.Rows {
			durCell("table5", row.Tech, "total_ns", row.Total, row.RelStd, row.N, row.P50, row.P95, row.P99,
				sized(m.Bytes, "input sizes differ (baseline %s, current %s bytes)", row.Normalized))
		}
	}
	if l := r.LD; l != nil {
		for _, row := range l.Rows {
			durCell("table6", row.Tech, "total_ns", row.Total, row.RelStd, row.N, row.P50, row.P95, row.P99,
				sized(l.Writes, "write counts differ (baseline %s, current %s)", row.Normalized))
		}
	}
	if p := r.PacketFilter; p != nil {
		for _, row := range p.Rows {
			durCell("pktfilter", row.Tech, "per_packet_ns", row.PerPacket, row.RelStd, row.N, row.P50, row.P95, row.P99, perOp)
			add(Cell{
				Experiment: "pktfilter", Row: row.Tech, Metric: "pkts_per_sec",
				Unit: "ops/s", Value: row.PacketsPerSec, CV: row.RelStd, N: row.N,
			})
		}
	}
	if p := r.PFBatch; p != nil {
		for _, row := range p.Rows {
			for _, cl := range row.Cells {
				name := fmt.Sprintf("%s/%s b=%d", row.Tech, row.Boundary, cl.Batch)
				durCell("pktfilter-batch", name, "per_packet_ns", cl.PerPacket, cl.RelStd, cl.N, cl.P50, cl.P95, cl.P99, micro)
				add(Cell{
					Experiment: "pktfilter-batch", Row: name, Metric: "pkts_per_sec",
					Unit: "ops/s", Value: cl.PacketsPerSec, CV: cl.RelStd, N: cl.N,
				})
			}
		}
	}
	if s := r.Swap; s != nil {
		for _, row := range s.Rows {
			for _, cl := range row.Cells {
				name := fmt.Sprintf("%s/%s", row.Tech, cl.Mode)
				durCell("swap-under-load", name, "per_op_ns", cl.PerOp, cl.RelStd, cl.N, cl.P50, cl.P95, cl.P99, micro)
			}
		}
	}
	if s := r.Scale; s != nil {
		// The closed-loop throughputs are a model of the service time:
		// runs with different service times are not comparable.
		g := &Gate{
			Size:         s.ServiceTime.String(),
			Mismatch:     "service_time mismatch (baseline %s, current %s): closed-loop throughputs are not comparable",
			Incomparable: true,
		}
		for _, row := range s.Rows {
			for _, cl := range row.Cells {
				// Throughput cells carry no variance; the gate falls back
				// to pure ratio (zero-variance d is ±Inf, so the effect
				// test always passes for them).
				add(Cell{
					Experiment: "scale",
					Row:        fmt.Sprintf("%s/%s w=%d", row.Workload, row.Tech, cl.Workers),
					Metric:     "ops_per_sec", Unit: "ops/s", Value: cl.Throughput,
					P50: float64(cl.P50), P95: float64(cl.P95), P99: float64(cl.P99),
					Gate: g,
				})
			}
		}
	}
	return cells
}

// CSV renders the cell matrix as results.csv: a stable header then one
// line per cell, durations in nanoseconds (DurationsNote).
func CSV(cells []Cell) string {
	var b strings.Builder
	b.WriteString("experiment,row,metric,unit,value,n,cv,p50_ns,p95_ns,p99_ns,stable\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%s,%s,%s,%s,%g,%d,%.6g,%g,%g,%g,%t\n",
			c.Experiment, c.Row, c.Metric, c.Unit, c.Value, c.N, c.CV,
			c.P50, c.P95, c.P99, c.Stable)
	}
	return b.String()
}
