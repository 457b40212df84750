package bench

import (
	"fmt"
	"time"

	"graftlab/internal/netsim"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
)

var pfBenchTechs = []tech.ID{
	tech.CompiledUnsafe, tech.Bytecode, tech.AOT, tech.CompiledSafe, tech.CompiledSFI,
	tech.Script, tech.NativeUnsafe, tech.Domain,
}

// RunPacketFilter measures per-packet filter cost per technology over the
// standard trace: the packet-filter experiment is not a numbered table
// in the paper, but the extension domain its related work leads with
// (§2's packet filters, "implemented in a simple interpreted language
// ... the performance of interpreted packet filters is close to that of
// compiled code" — a claim this experiment puts to the test across
// technology classes). Per row: per_packet_ns, pkts_per_sec (the
// demultiplexing rate one endpoint sustains) and normalized; the scalar
// is the trace length.
func RunPacketFilter(cfg Config) ([]Cell, error) {
	nPackets := cfg.EvictIters / 10
	if nPackets < 200 {
		nPackets = 200
	}
	trace, err := netsim.GenerateTrace(netsim.DefaultTrace(nPackets))
	if err != nil {
		return nil, err
	}
	out := &cellList{exp: "pktfilter"}
	out.add("", "packets", "count", float64(nPackets))
	var base time.Duration

	measure := func(name string, load Loader, packets []netsim.Packet, runs int) error {
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
		out.sample(name, "per_packet_ns", s.Mean, s)
		out.derived(name, "pkts_per_sec", "ops/s", perSecond(s.Mean), s)
		out.derived(name, "normalized", "ratio", float64(s.Mean)/float64(base), s)
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
		if err := measure(string(id), Class(id, tech.Options{VM: cfg.VM}), packets, runs); err != nil {
			return nil, fmt.Errorf("pktfilter %s: %w", id, err)
		}
	}

	// Upcall row: one crossing per packet — the configuration whose cost
	// motivated in-kernel packet filters in the first place [MOGUL87].
	up := Upcall(tech.CompiledUnsafe, tech.Options{}, 0)
	if err := measure(upcallRow, up, trace[:min(len(trace), 2000)], min(cfg.Runs, 5)); err != nil {
		return nil, err
	}
	return out.cells, nil
}

// packetFilterTable renders the experiment.
func packetFilterTable(cells []Cell) *stats.Table {
	x := indexCells(cells)
	t := &stats.Table{
		Title:  fmt.Sprintf("Packet Filter (%d-frame trace, UDP port endpoint)", int(x.v("", "packets"))),
		Header: []string{"technology", "stands in for", "per packet", "normalized", "pkts/sec"},
		Caption: "The §2 extension domain: a BPF-style demultiplexing filter. The paper notes\n" +
			"interpreted packet filters historically ran 'close to compiled code' because\n" +
			"their domain language was tiny; a general-purpose script class does not.",
	}
	for _, row := range rowsWith(cells, "per_packet_ns") {
		per, _ := x.cell(row, "per_packet_ns")
		t.AddRow(row, standsIn(row, "user-level packet filter"),
			withSpread(per),
			stats.Ratio(x.v(row, "normalized")),
			fmt.Sprintf("%.0f", x.v(row, "pkts_per_sec")))
	}
	return t
}
