package bench

import (
	"fmt"
	"time"

	"graftlab/internal/netsim"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
)

// PFRow is one technology's line in the packet-filter experiment.
type PFRow struct {
	Tech      string
	PaperName string
	PerPacket time.Duration
	RelStd    float64
	// N is the measurement-run count behind this row (warmup excluded).
	N int `json:"n,omitempty"`
	// Tail percentiles across per-run per-packet means.
	P50        time.Duration `json:"p50,omitempty"`
	P95        time.Duration `json:"p95,omitempty"`
	P99        time.Duration `json:"p99,omitempty"`
	Normalized float64
	// PacketsPerSec is the demultiplexing rate one endpoint sustains.
	PacketsPerSec float64
}

// PFResult is the packet-filter experiment: not a numbered table in the
// paper, but the extension domain its related work leads with (§2's
// packet filters, "implemented in a simple interpreted language ... the
// performance of interpreted packet filters is close to that of compiled
// code" — a claim this experiment puts to the test across technology
// classes).
type PFResult struct {
	Packets int
	Rows    []PFRow
}

var pfBenchTechs = []tech.ID{
	tech.CompiledUnsafe, tech.Bytecode, tech.AOT, tech.CompiledSafe, tech.CompiledSFI,
	tech.Script, tech.NativeUnsafe, tech.Domain,
}

// RunPacketFilter measures per-packet filter cost per technology over the
// standard trace.
func RunPacketFilter(cfg Config) (*PFResult, error) {
	nPackets := cfg.EvictIters / 10
	if nPackets < 200 {
		nPackets = 200
	}
	trace, err := netsim.GenerateTrace(netsim.DefaultTrace(nPackets))
	if err != nil {
		return nil, err
	}
	res := &PFResult{Packets: nPackets}
	var base time.Duration

	measure := func(name, paper string, load Loader, packets []netsim.Packet, runs int) error {
		sc, err := PacketFilterScenario(load, packets)
		if err != nil {
			return err
		}
		defer sc.Close()
		ss, err := measureSeries(cfg.EffectiveWarmup(), runs, arm{sc, len(packets), len(packets)})
		if err != nil {
			return err
		}
		s := ss[0]
		if base == 0 {
			base = s.Mean
		}
		row := PFRow{
			Tech: name, PaperName: paper,
			PerPacket: s.Mean, RelStd: s.RelStd, N: s.N,
			P50: s.P50, P95: s.P95, P99: s.P99,
			Normalized: float64(s.Mean) / float64(base),
		}
		if s.Mean > 0 {
			row.PacketsPerSec = float64(time.Second) / float64(s.Mean)
		}
		res.Rows = append(res.Rows, row)
		return nil
	}

	for _, id := range pfBenchTechs {
		packets := trace
		runs := cfg.Runs
		switch id {
		case tech.Script:
			packets = trace[:min(len(trace), 200)]
			runs = min(cfg.Runs, 3)
		case tech.Bytecode:
			runs = min(cfg.Runs, 10)
		}
		if err := measure(string(id), tech.PaperName(id), Class(id, tech.Options{VM: cfg.VM}), packets, runs); err != nil {
			return nil, fmt.Errorf("pktfilter %s: %w", id, err)
		}
	}

	// Upcall row: one crossing per packet — the configuration whose cost
	// motivated in-kernel packet filters in the first place [MOGUL87].
	up := Upcall(tech.CompiledUnsafe, tech.Options{}, 0)
	if err := measure("upcall-server", "user-level packet filter", up, trace[:min(len(trace), 2000)], min(cfg.Runs, 5)); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the experiment.
func (r *PFResult) Table() *stats.Table {
	t := &stats.Table{
		Title:  fmt.Sprintf("Packet Filter (%d-frame trace, UDP port endpoint)", r.Packets),
		Header: []string{"technology", "stands in for", "per packet", "normalized", "pkts/sec"},
		Caption: "The §2 extension domain: a BPF-style demultiplexing filter. The paper notes\n" +
			"interpreted packet filters historically ran 'close to compiled code' because\n" +
			"their domain language was tiny; a general-purpose script class does not.",
	}
	for _, row := range r.Rows {
		t.AddRow(row.Tech, row.PaperName,
			fmt.Sprintf("%s(%.1f%%)", stats.FormatDuration(row.PerPacket), row.RelStd*100),
			stats.Ratio(row.Normalized),
			fmt.Sprintf("%.0f", row.PacketsPerSec))
	}
	return t
}
