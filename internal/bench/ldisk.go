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

// LDRow is one technology's line in Table 6.
type LDRow struct {
	Tech      string
	PaperName string
	Total     time.Duration // wall time in the mapping bookkeeping
	RelStd    float64
	// N is the measurement-run count behind this row (warmup excluded).
	N int `json:"n,omitempty"`
	// Tail percentiles across the per-run totals (unscaled).
	P50        time.Duration `json:"p50,omitempty"`
	P95        time.Duration `json:"p95,omitempty"`
	P99        time.Duration `json:"p99,omitempty"`
	Normalized float64
	PerBlock   time.Duration // Total / writes: what each write must save
	Scaled     bool
}

// LDResult reproduces Table 6.
type LDResult struct {
	Writes int
	// SavedPerBlock is the virtual disk time the batching saves per
	// block (direct random write cost minus amortized sequential log
	// cost): the budget the bookkeeping must fit inside.
	SavedPerBlock time.Duration
	Rows          []LDRow
}

var ldTechs = []tech.ID{
	tech.CompiledUnsafe, tech.Bytecode, tech.AOT, tech.CompiledSafe, tech.CompiledSFI,
	tech.Script, tech.NativeUnsafe,
}

// RunLD regenerates Table 6: the time to handle the mapping bookkeeping
// for cfg.LDWrites writes of an 80/20-skewed stream.
func RunLD(cfg Config) (*LDResult, error) {
	res := &LDResult{Writes: cfg.LDWrites}
	res.SavedPerBlock = ldSavings(cfg)
	var base time.Duration

	measure := func(name, paper string, load Loader, writes, runs int) error {
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
		scaled := false
		if writes != cfg.LDWrites {
			total = time.Duration(float64(total) * float64(cfg.LDWrites) / float64(writes))
			scaled = true
		}
		if base == 0 {
			base = total
		}
		res.Rows = append(res.Rows, LDRow{
			Tech: name, PaperName: paper,
			Total: total, RelStd: s.RelStd, N: s.N,
			P50: s.P50, P95: s.P95, P99: s.P99,
			Normalized: float64(total) / float64(base),
			PerBlock:   total / time.Duration(cfg.LDWrites),
			Scaled:     scaled,
		})
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
		if err := measure(string(id), tech.PaperName(id), Class(id, tech.Options{VM: cfg.VM}), writes, runs); err != nil {
			return nil, fmt.Errorf("ld %s: %w", id, err)
		}
	}

	// Upcall row: one domain crossing per block write, the paper's §5.6
	// user-level-server analysis.
	up := Upcall(tech.CompiledUnsafe, tech.Options{}, 0)
	if err := measure("upcall-server", "C in user-level server", up, max(cfg.LDWrites/8, 1024), min(cfg.Runs, 5)); err != nil {
		return nil, err
	}
	return res, nil
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

// Table renders the paper's Table 6 shape.
func (r *LDResult) Table() *stats.Table {
	t := &stats.Table{
		Title:  fmt.Sprintf("Table 6: Logical Disk (%d writes, 80/20 skew)", r.Writes),
		Header: []string{"technology", "stands in for", "raw", "normalized", "per block"},
		Caption: fmt.Sprintf(
			"Bookkeeping time for the logical->physical mapping. The graft breaks even\n"+
				"if per-block overhead < the %s/block the log layer saves on the modeled\n"+
				"disk. '~' rows measured at reduced size, scaled. Paper (Solaris): C\n"+
				"1.9s/1.0/7.2µs, Java 24.6s/13/94µs, Modula-3 2.9s/1.5/11.1µs, Omniware\n"+
				"2.2s/1.16/8.4µs per 262,144 writes.",
			stats.FormatDuration(r.SavedPerBlock)),
	}
	for _, row := range r.Rows {
		raw := fmt.Sprintf("%s(%.1f%%)", stats.FormatDuration(row.Total), row.RelStd*100)
		if row.Scaled {
			raw = "~" + raw
		}
		t.AddRow(row.Tech, row.PaperName, raw,
			stats.Ratio(row.Normalized),
			stats.FormatDuration(row.PerBlock))
	}
	return t
}
