package bench

import (
	"fmt"
	"time"

	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/workload"
)

// md5Techs are Table 5's columns in paper order.
var md5Techs = []tech.ID{
	tech.CompiledUnsafe, tech.Bytecode, tech.AOT, tech.CompiledSafe, tech.CompiledSFI,
	tech.Script, tech.NativeUnsafe,
}

// RunMD5 regenerates Table 5: per technology row, the time to
// fingerprint the whole input (total_ns), that time over the first
// row's (normalized) and over the time to stream the input from the
// modeled disk (md5_over_disk: < 1 means the fingerprint hides under
// I/O). A row measured on a reduced input carries scaled_by, the factor
// its time was scaled by; its percentiles stay unscaled. The scalars are
// the input size and the disk time.
func RunMD5(cfg Config) ([]Cell, error) {
	data := make([]byte, cfg.MD5Bytes)
	// The input is a deterministic function of the configured seed, so
	// two runs of the same Config fingerprint identical bytes.
	workload.FillPattern(data, uint32(cfg.Seed))

	// Disk time for the full input, from the geometry: one seek then a
	// streaming read (the paper's "1MB access time" in Table 4).
	g := cfg.Geometry
	diskTime := g.AvgSeek + g.HalfRotation +
		time.Duration(int64(cfg.MD5Bytes)*int64(time.Second)/g.TransferRate)

	out := &cellList{exp: "table5"}
	out.add("", "bytes", "bytes", float64(cfg.MD5Bytes))
	out.add("", "disk_ns", "ns", float64(diskTime))
	var base time.Duration

	measure := func(name string, load Loader, bytes, runs int) error {
		sc, err := MD5Scenario(load, data[:bytes])
		if err != nil {
			return err
		}
		defer sc.Close()
		ss, err := measureSeries(cfg.EffectiveWarmup(), runs, arm{sc, 1, 1})
		if err != nil {
			return err
		}
		s := ss[0]
		total := s.Mean
		if bytes != cfg.MD5Bytes {
			total = time.Duration(float64(total) * float64(cfg.MD5Bytes) / float64(bytes))
		}
		if base == 0 {
			base = total
		}
		out.sample(name, "total_ns", total, s)
		out.derived(name, "normalized", "ratio", float64(total)/float64(base), s)
		out.add(name, "md5_over_disk", "ratio", float64(total)/float64(diskTime))
		if bytes != cfg.MD5Bytes {
			out.add(name, "scaled_by", "ratio", float64(cfg.MD5Bytes)/float64(bytes))
		}
		return nil
	}

	for _, id := range md5Techs {
		bytes := cfg.MD5Bytes
		runs := cfg.Runs
		switch id {
		case tech.Script:
			bytes = cfg.MD5ScriptBytes
			runs = min(cfg.Runs, 3)
		case tech.Bytecode:
			runs = min(cfg.Runs, 5)
		}
		if err := measure(string(id), Class(id, tech.Options{VM: cfg.VM}), bytes, runs); err != nil {
			return nil, fmt.Errorf("md5 %s: %w", id, err)
		}
	}

	// Upcall row: compiled graft behind a domain crossing; the host
	// chunks at the buffer window, so ~Bytes/96KB upcalls total — the
	// paper's "one upcall for every 64KB read from disk" analysis.
	up := Upcall(tech.CompiledUnsafe, tech.Options{}, 0)
	if err := measure(upcallRow, up, cfg.MD5Bytes, min(cfg.Runs, 10)); err != nil {
		return nil, err
	}
	return out.cells, nil
}

// md5Table renders the paper's Table 5 shape.
func md5Table(cells []Cell) *stats.Table {
	x := indexCells(cells)
	t := &stats.Table{
		Title:  fmt.Sprintf("Table 5: MD5 Fingerprinting (%d KB)", int(x.v("", "bytes"))>>10),
		Header: []string{"technology", "stands in for", "raw", "normalized", "MD5/disk"},
		Caption: fmt.Sprintf(
			"Time to fingerprint the input vs %s to stream it from the modeled disk;\n"+
				"MD5/disk < 1 means fingerprinting hides under I/O. '~' rows measured at\n"+
				"reduced size, scaled linearly. Paper (Solaris): C 146ms/1.0/0.46,\n"+
				"Java 10368ms/71/32, Modula-3 294ms/2.0/0.92, Omniware 219ms/1.5/0.68,\n"+
				"Tcl 50 minutes.",
			stats.FormatDuration(x.dur("", "disk_ns"))),
	}
	for _, row := range rowsWith(cells, "total_ns") {
		total, _ := x.cell(row, "total_ns")
		t.AddRow(row, standsIn(row, "C in user-level server"), scaledMark(x, row)+withSpread(total),
			stats.Ratio(x.v(row, "normalized")),
			fmt.Sprintf("%.2f", x.v(row, "md5_over_disk")))
	}
	return t
}

// scaledMark is "~" for a row measured at reduced size and scaled.
func scaledMark(x cellIndex, row string) string {
	if _, ok := x.cell(row, "scaled_by"); ok {
		return "~"
	}
	return ""
}
