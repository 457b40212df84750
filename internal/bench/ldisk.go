package bench

import (
	"fmt"
	"time"

	"graftlab/internal/disk"
	"graftlab/internal/ld"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/vclock"
	"graftlab/internal/workload"
)

var ldTechs = []tech.ID{
	tech.CompiledUnsafe, tech.Bytecode, tech.AOT, tech.CompiledSafe, tech.CompiledSFI,
	tech.Script, tech.NativeUnsafe,
}

// RunLD regenerates Table 6: the time to handle the mapping bookkeeping
// for cfg.LDWrites writes of an 80/20-skewed stream. Per technology row:
// that time (total_ns), over the first row's (normalized), and per write
// (per_block_ns: what each write must save); a row measured on fewer
// writes carries scaled_by like Table 5's. The scalars are the write
// count and saved_per_block_ns, the virtual disk time the batching saves
// per block (direct random write cost minus amortized sequential log
// cost): the budget the bookkeeping must fit inside.
func RunLD(cfg Config) ([]Cell, error) {
	out := &cellList{exp: "table6"}
	out.add("", "writes", "count", float64(cfg.LDWrites))
	out.add("", "saved_per_block_ns", "ns", float64(ldSavings(cfg)))
	var base time.Duration

	measure := func(name string, load Loader, writes, runs int) error {
		sc, err := LDScenario(cfg, load)
		if err != nil {
			return err
		}
		defer sc.Close()
		ss, err := measureSeries(cfg.EffectiveWarmup(), runs, arm{sc, writes, 1})
		if err != nil {
			return err
		}
		s := ss[0]
		total := s.Mean
		if writes != cfg.LDWrites {
			total = time.Duration(float64(total) * float64(cfg.LDWrites) / float64(writes))
		}
		if base == 0 {
			base = total
		}
		out.sample(name, "total_ns", total, s)
		out.derived(name, "normalized", "ratio", float64(total)/float64(base), s)
		out.add(name, "per_block_ns", "ns", float64(total/time.Duration(cfg.LDWrites)))
		if writes != cfg.LDWrites {
			out.add(name, "scaled_by", "ratio", float64(cfg.LDWrites)/float64(writes))
		}
		return nil
	}

	for _, id := range ldTechs {
		writes := cfg.LDWrites
		runs := cfg.Runs
		switch id {
		case tech.Script:
			writes = cfg.LDScriptWrites
			runs = min(cfg.Runs, 3)
		case tech.Bytecode:
			writes = max(cfg.LDWrites/8, 1024)
			runs = min(cfg.Runs, 5)
		}
		if err := measure(string(id), Class(id, tech.Options{VM: cfg.VM}), writes, runs); err != nil {
			return nil, fmt.Errorf("ld %s: %w", id, err)
		}
	}

	// Upcall row: one domain crossing per block write, the paper's §5.6
	// user-level-server analysis.
	up := Upcall(tech.CompiledUnsafe, tech.Options{}, 0)
	if err := measure(upcallRow, up, max(cfg.LDWrites/8, 1024), min(cfg.Runs, 5)); err != nil {
		return nil, err
	}
	return out.cells, nil
}

// ldSavings computes the virtual disk time batching saves per block:
// random single-block write cost minus the per-block share of a
// sequential 16-block segment flush.
func ldSavings(cfg Config) time.Duration {
	clock := &vclock.Clock{}
	dev := disk.New(cfg.Geometry, clock)
	stream := workload.NewSkewed(cfg.Geometry.Blocks, 7)
	const n = 512
	var direct time.Duration
	for i := 0; i < n; i++ {
		d, err := ld.DirectWrite(dev, stream.Next())
		if err != nil {
			return 0
		}
		direct += d
	}
	directPer := direct / n

	clock2 := &vclock.Clock{}
	dev2 := disk.New(cfg.Geometry, clock2)
	l := ld.New(dev2, ld.NewNativeMapper(cfg.Geometry.Blocks), false)
	stream2 := workload.NewSkewed(cfg.Geometry.Blocks, 7)
	for i := 0; i < n; i++ {
		if err := l.Write(stream2.Next()); err != nil {
			return 0
		}
	}
	ldPer := clock2.Now() / n
	if directPer <= ldPer {
		return 0
	}
	return directPer - ldPer
}

// ldTable renders the paper's Table 6 shape.
func ldTable(cells []Cell) *stats.Table {
	x := indexCells(cells)
	t := &stats.Table{
		Title:  fmt.Sprintf("Table 6: Logical Disk (%d writes, 80/20 skew)", int(x.v("", "writes"))),
		Header: []string{"technology", "stands in for", "raw", "normalized", "per block"},
		Caption: fmt.Sprintf(
			"Bookkeeping time for the logical->physical mapping. The graft breaks even\n"+
				"if per-block overhead < the %s/block the log layer saves on the modeled\n"+
				"disk. '~' rows measured at reduced size, scaled. Paper (Solaris): C\n"+
				"1.9s/1.0/7.2µs, Java 24.6s/13/94µs, Modula-3 2.9s/1.5/11.1µs, Omniware\n"+
				"2.2s/1.16/8.4µs per 262,144 writes.",
			stats.FormatDuration(x.dur("", "saved_per_block_ns"))),
	}
	for _, row := range rowsWith(cells, "total_ns") {
		total, _ := x.cell(row, "total_ns")
		t.AddRow(row, standsIn(row, "C in user-level server"), scaledMark(x, row)+withSpread(total),
			stats.Ratio(x.v(row, "normalized")),
			stats.FormatDuration(x.dur(row, "per_block_ns")))
	}
	return t
}
