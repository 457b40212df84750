package bench

import (
	"fmt"
	"time"

	"graftlab/internal/grafts"
	"graftlab/internal/md5x"
	"graftlab/internal/mem"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/upcall"
	"graftlab/internal/workload"
)

// MD5Row is one technology's line in Table 5.
type MD5Row struct {
	Tech      string
	PaperName string
	Total     time.Duration // time to fingerprint MD5Bytes
	RelStd    float64
	// N is the measurement-run count behind this row (warmup excluded).
	N int `json:"n,omitempty"`
	// Tail latency across the per-run totals (unscaled; see Scaled).
	P50        time.Duration `json:"p50"`
	P95        time.Duration `json:"p95"`
	P99        time.Duration `json:"p99"`
	Normalized float64
	// MD5OverDisk is Total / (time to read the same bytes from the
	// simulated disk); < 1 means the fingerprint hides under I/O.
	MD5OverDisk float64
	// Scaled marks rows measured at reduced size and scaled linearly.
	Scaled bool
}

// MD5Result reproduces Table 5.
type MD5Result struct {
	Bytes    int
	DiskTime time.Duration // simulated time to move Bytes from disk
	Rows     []MD5Row
}

// md5Techs are Table 5's columns in paper order.
var md5Techs = []tech.ID{
	tech.CompiledUnsafe, tech.Bytecode, tech.AOT, tech.CompiledSafe, tech.CompiledSFI,
	tech.Script, tech.NativeUnsafe,
}

// RunMD5 regenerates Table 5.
func RunMD5(cfg Config) (*MD5Result, error) {
	data := make([]byte, cfg.MD5Bytes)
	// The input is a deterministic function of the configured seed, so
	// two runs of the same Config fingerprint identical bytes.
	workload.FillPattern(data, uint32(cfg.Seed))
	want := md5x.Of(data)

	// Disk time for the full input, from the geometry: one seek then a
	// streaming read (the paper's "1MB access time" in Table 4).
	g := cfg.Geometry
	diskTime := g.AvgSeek + g.HalfRotation +
		time.Duration(int64(cfg.MD5Bytes)*int64(time.Second)/g.TransferRate)

	res := &MD5Result{Bytes: cfg.MD5Bytes, DiskTime: diskTime}
	var base time.Duration

	measure := func(name, paper string, graft tech.Graft, closer func(), bytes int) error {
		if closer != nil {
			defer closer()
		}
		h, err := grafts.NewMD5Graft(graft)
		if err != nil {
			return err
		}
		input := data[:bytes]
		wantDigest := want
		if bytes != cfg.MD5Bytes {
			wantDigest = md5x.Of(input)
		}
		s, err := measureSeries(cfg.EffectiveWarmup(), cfg.Runs, func() (time.Duration, error) {
			if err := h.Reset(); err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := h.Write(input); err != nil {
				return 0, err
			}
			got, err := h.Sum()
			d := time.Since(t0)
			if err != nil {
				return 0, err
			}
			if got != wantDigest {
				return 0, fmt.Errorf("bench: %s computed wrong digest", name)
			}
			return d, nil
		})
		if err != nil {
			return err
		}
		total := s.Mean
		scaled := false
		if bytes != cfg.MD5Bytes {
			total = time.Duration(float64(total) * float64(cfg.MD5Bytes) / float64(bytes))
			scaled = true
		}
		if base == 0 {
			base = total
		}
		res.Rows = append(res.Rows, MD5Row{
			Tech: name, PaperName: paper, N: s.N,
			Total: total, RelStd: s.RelStd,
			P50: s.P50, P95: s.P95, P99: s.P99,
			Normalized:  float64(total) / float64(base),
			MD5OverDisk: float64(total) / float64(diskTime),
			Scaled:      scaled,
		})
		return nil
	}

	for _, id := range md5Techs {
		graft, err := tech.Load(id, grafts.MD5, mem.New(grafts.MDMemSize), tech.Options{VM: cfg.VM})
		if err != nil {
			return nil, fmt.Errorf("md5 %s: %w", id, err)
		}
		bytes := cfg.MD5Bytes
		runs := cfg.Runs
		switch id {
		case tech.Script:
			bytes = cfg.MD5ScriptBytes
			runs = min(cfg.Runs, 3)
		case tech.Bytecode:
			runs = min(cfg.Runs, 5)
		}
		saved := cfg.Runs
		cfg.Runs = runs
		err = measure(string(id), tech.PaperName(id), graft, nil, bytes)
		cfg.Runs = saved
		if err != nil {
			return nil, fmt.Errorf("md5 %s: %w", id, err)
		}
	}

	// Upcall row: compiled graft behind a domain crossing; the host
	// chunks at the buffer window, so ~Bytes/96KB upcalls total — the
	// paper's "one upcall for every 64KB read from disk" analysis.
	inner, err := tech.Load(tech.CompiledUnsafe, grafts.MD5, mem.New(grafts.MDMemSize), tech.Options{})
	if err != nil {
		return nil, err
	}
	d := upcall.NewDomain(inner, 0)
	saved := cfg.Runs
	cfg.Runs = min(cfg.Runs, 10)
	err = measure("upcall-server", "C in user-level server", d, d.Close, cfg.MD5Bytes)
	cfg.Runs = saved
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the paper's Table 5 shape.
func (r *MD5Result) Table() *stats.Table {
	t := &stats.Table{
		Title:  fmt.Sprintf("Table 5: MD5 Fingerprinting (%d KB)", r.Bytes>>10),
		Header: []string{"technology", "stands in for", "raw", "normalized", "MD5/disk"},
		Caption: fmt.Sprintf(
			"Time to fingerprint the input vs %s to stream it from the modeled disk;\n"+
				"MD5/disk < 1 means fingerprinting hides under I/O. '~' rows measured at\n"+
				"reduced size, scaled linearly. Paper (Solaris): C 146ms/1.0/0.46,\n"+
				"Java 10368ms/71/32, Modula-3 294ms/2.0/0.92, Omniware 219ms/1.5/0.68,\n"+
				"Tcl 50 minutes.",
			stats.FormatDuration(r.DiskTime)),
	}
	for _, row := range r.Rows {
		raw := fmt.Sprintf("%s(%.1f%%)", stats.FormatDuration(row.Total), row.RelStd*100)
		if row.Scaled {
			raw = "~" + raw
		}
		t.AddRow(row.Tech, row.PaperName, raw,
			stats.Ratio(row.Normalized),
			fmt.Sprintf("%.2f", row.MD5OverDisk))
	}
	return t
}
