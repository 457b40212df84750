// Command graftbench regenerates the paper's evaluation artifacts —
// Tables 1-6, Figure 1, and the NIL-check / SFI-read-protection
// ablations — on this machine.
//
// Usage:
//
//	graftbench [-quick] [-experiment all|table1..table6|figure1|ablation|pktfilter|pktfilter-batch|scale]
//	           [-warmup N] [-seed N] [-report-dir dir]
//	           [-figure1-csv out.csv] [-vm opt|baseline] [-json] [-json-out out.json]
//	           [-telemetry]
//	           [-metrics-addr :9090] [-metrics-hold 30s]
//	           [-profile-out p.folded] [-profile-interval N]
//	           [-spans-out spans.json] [-span-sample N]
//	           [-check-against baseline.json] [-check-tolerance 0.30] [-check-effect 0.80]
//
// -experiment also accepts a comma-separated list (e.g.
// "table5,pktfilter-batch"); the named experiments run in the order
// given and share one report, so a single archived BENCH_*.json can
// gate several experiments at once.
//
// -vm selects the bytecode engine for the vm rows: "opt" (default, the
// load-time optimizing translator) or "baseline" (the reference
// interpreter). -json writes machine-readable results (ns durations,
// config, host info) to BENCH_<experiment>.json; -json-out overrides the
// path.
//
// -telemetry enables per-graft invocation metrics (counters, traps, fuel,
// sampled latency histograms; see docs/observability.md); the snapshots
// are printed after the run and attached to the JSON report.
//
// -profile-out enables the fuel-attributed sampling profiler and writes
// a folded-stack (flamegraph-ready) profile; -profile-interval sets the
// fuel units between samples. -spans-out enables the kernel trace ring —
// page faults, eviction decisions, stream-filter passes, upcalls, LD
// segment flushes and scheduler picks, each a causal span with its
// nested policy, engine and upcall children — and writes it as Chrome
// trace-event JSON loadable at ui.perfetto.dev; -span-sample records one
// root span in N (1 records every kernel operation). All of these imply
// -telemetry; see docs/observability.md for the workflow.
//
// Every matrix cell runs -warmup discarded warmup runs (default 3 at
// paper scale, 1 with -quick) before its measured runs, and workload
// inputs derive from -seed (default 1996), so a repeated invocation
// measures identical work. -report-dir writes the suite artifacts —
// results.json, results.csv (the flattened cell matrix), and REPORT.md
// (methodology, per-cell stability flags, and the regression-gate
// verdicts when -check-against ran) — into the given directory.
//
// -check-against loads an archived BENCH_*.json and compares this run's
// results against it (see internal/bench.CompareReports). A cell fails
// the gate only when it moved in the bad direction by more than
// -check-tolerance AND the move is statistically significant relative to
// the two samples' variance (|Cohen's d| >= -check-effect); a bad-looking
// move inside a cell's own noise reads `noise` and does not fail. Rows
// the comparison had to skip (rows missing from either run, disjoint
// experiments, service-time mismatch) are listed explicitly; the run
// errors if nothing at all could be gated. `make bench-check` wires this
// against the committed baseline of Table 5, the batched packet filter
// and swap-under-load.
//
// Paper-scale runs (the default) take minutes, dominated by the script
// (Tcl-class) rows; -quick keeps every code path but shrinks sizes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graftlab/internal/bench"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/upcall"
)

// defaultJSONPath names the -json output after the experiment, so runs
// of different experiments can be archived side by side. Comma-separated
// selections join with "+" to stay filesystem-friendly.
func defaultJSONPath(experiment string) string {
	return "BENCH_" + strings.ReplaceAll(experiment, ",", "+") + ".json"
}

func main() {
	upcall.SignalChildMain() // become the Table 1 child if so directed

	var (
		experiment = flag.String("experiment", "all",
			"which artifact(s) to regenerate: all, or a comma-separated list of table1..table6, figure1, ablation, pktfilter, pktfilter-batch, scale")
		quick  = flag.Bool("quick", false, "reduced sizes (CI-scale)")
		csv    = flag.String("figure1-csv", "", "also write the Figure 1 series to this CSV file")
		jsonB  = flag.Bool("json", false, "also write machine-readable results to BENCH_<experiment>.json")
		jsonP  = flag.String("json-out", "", "write machine-readable results to this path (implies -json)")
		vmMode = flag.String("vm", "", `bytecode engine: "opt" (default) or "baseline"`)
		telem  = flag.Bool("telemetry", false, "record per-graft invocation metrics and print/export them")
		checkP = flag.String("check-against", "", "compare results against this baseline BENCH_*.json; exit non-zero on regression")
		tolF   = flag.Float64("check-tolerance", 0.30, "relative tolerance for -check-against (0.30 = 30%)")
		effF   = flag.Float64("check-effect", stats.EffectLarge, "Cohen's d threshold for -check-against: smaller effects read as noise, not regression")

		warmup = flag.Int("warmup", 0, "discarded warmup runs per cell (0 = scale default: 3 paper, 1 quick)")
		seed   = flag.Int64("seed", 0, "workload seed for reproducible inputs (0 = default 1996)")
		repDir = flag.String("report-dir", "", "write results.json, results.csv, and REPORT.md into this directory")

		profOut      = flag.String("profile-out", "", "sample graft fuel and write a folded-stack (flamegraph) profile to this path (implies -telemetry)")
		profInterval = flag.Int64("profile-interval", telemetry.DefaultProfileInterval, "fuel units between profiler samples")
		spansOut     = flag.String("spans-out", "", "record kernel operations as causal spans and write Chrome trace-event JSON (Perfetto-loadable) to this path (implies -telemetry)")
		spanSample   = flag.Int("span-sample", 64, "sample every Nth root span for -spans-out (1 records every kernel operation)")

		metricsAddr = flag.String("metrics-addr", "",
			"serve live /metrics (Prometheus text), /debug/telemetry.json, and SSE /stream on this address during the run (implies -telemetry)")
		metricsHold = flag.Duration("metrics-hold", 0,
			"keep the -metrics-addr server up this long after the run so scrapers and graftmon can read the final windows")
	)
	flag.Parse()

	cfg := bench.Default()
	if *quick {
		cfg = bench.Quick()
	}
	if *warmup > 0 {
		cfg.WarmupRuns = *warmup
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if exe, err := os.Executable(); err == nil {
		cfg.Exe = exe
	}
	mode, err := tech.ParseVMMode(*vmMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graftbench: %v\n", err)
		os.Exit(2)
	}
	cfg.VM = mode

	exp := strings.ToLower(*experiment)
	jsonPath := *jsonP
	if jsonPath == "" && *jsonB {
		jsonPath = defaultJSONPath(exp)
	}
	if *profOut != "" {
		*telem = true
		if _, err := telemetry.EnableProfiler(*profInterval); err != nil {
			fmt.Fprintf(os.Stderr, "graftbench: %v\n", err)
			os.Exit(2)
		}
	}
	if *spansOut != "" {
		*telem = true
		if err := telemetry.SetSpanSampleEvery(*spanSample); err != nil {
			fmt.Fprintf(os.Stderr, "graftbench: %v\n", err)
			os.Exit(2)
		}
		telemetry.EnableSpans(spanRingCapacity)
	}
	if *metricsAddr != "" {
		*telem = true
	}
	if *telem {
		telemetry.SetEnabled(true)
		cfg.Telemetry = true
	}
	if *metricsAddr != "" {
		srv, err := telemetry.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graftbench: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("serving live telemetry on http://%s (endpoints: /metrics, /debug/telemetry.json, /stream)\n", srv.Addr())
		defer srv.Close()
		if *metricsHold > 0 {
			defer func() {
				fmt.Printf("holding telemetry server for %v (attach graftmon or curl, ^C to stop early)\n", *metricsHold)
				time.Sleep(*metricsHold)
			}()
		}
	}

	report, err := run(cfg, exp, *csv, jsonPath, *quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graftbench: %v\n", err)
		os.Exit(1)
	}
	var cmp *bench.Comparison
	var checkErr error
	if *checkP != "" {
		cmp, checkErr = checkAgainst(report, *checkP, *tolF, *effF)
	}
	if *repDir != "" {
		opts := bench.ReportOptions{
			BaselinePath:    *checkP,
			Tolerance:       *tolF,
			EffectThreshold: *effF,
		}
		if err := writeReportArtifacts(*repDir, report, cmp, opts); err != nil {
			fmt.Fprintf(os.Stderr, "graftbench: %v\n", err)
			os.Exit(1)
		}
	}
	if checkErr != nil {
		// Artifacts above are written first so a failing gate still leaves
		// REPORT.md documenting what regressed.
		fmt.Fprintf(os.Stderr, "graftbench: %v\n", checkErr)
		os.Exit(1)
	}
	if *profOut != "" {
		if err := dumpProfile(*profOut); err != nil {
			fmt.Fprintf(os.Stderr, "graftbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *spansOut != "" {
		if err := dumpSpans(*spansOut); err != nil {
			fmt.Fprintf(os.Stderr, "graftbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// spanRingCapacity bounds the kernel trace ring. Spans are sampled (one
// root in -span-sample), so this holds minutes of paper-scale activity.
const spanRingCapacity = 1 << 15

// dumpProfile writes the folded-stack fuel profile and prints the
// per-line attribution table.
func dumpProfile(path string) error {
	p := telemetry.CurrentProfile()
	if p == nil {
		return fmt.Errorf("no profile recorded")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteFolded(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("folded fuel profile written to %s (%d sites, %d fuel attributed)\n",
		path, len(p.Samples()), p.TotalFuel())
	if table := p.LineTable(); table != "" {
		fmt.Print(table)
	}
	return nil
}

// dumpSpans writes the recorded causal spans as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func dumpSpans(path string) error {
	st := telemetry.CurrentSpans()
	if st == nil {
		return fmt.Errorf("no spans recorded")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := st.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("causal span trace written to %s (%d spans retained, %d dropped)\n",
		path, st.Len(), st.Dropped())
	return nil
}

// checkAgainst compares report with the baseline archived at path. It
// prints every gated cell (ratio, both CVs, Cohen's d, verdict) and the
// skip summary, and returns the comparison plus an error when any cell's
// regression is both practically (tolerance) and statistically (effect
// size) significant, or when nothing at all could be gated.
func checkAgainst(report *bench.Report, path string, tol, effect float64) (*bench.Comparison, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var baseline bench.Report
	if err := json.Unmarshal(data, &baseline); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	cmp := bench.CompareReports(&baseline, report, bench.CompareOptions{
		Tolerance: tol, EffectThreshold: effect,
	})
	fmt.Printf("regression gate vs %s (tolerance %.0f%%, effect threshold |d| >= %.2f):\n",
		path, tol*100, effect)
	for _, c := range cmp.Cells {
		fmt.Println("  " + c.String())
	}
	if sum := cmp.SkipSummary(); sum != "" {
		fmt.Println(sum)
	}
	if cmp.Compared() == 0 {
		msg := fmt.Sprintf("baseline %s shares no gated metrics with this run", path)
		if sum := cmp.SkipSummary(); sum != "" {
			msg += "\n" + sum
		}
		return cmp, fmt.Errorf("%s", msg)
	}
	if regs := cmp.Regressions(); len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "REGRESSION %s\n", r)
		}
		return cmp, fmt.Errorf("%d of %d gated metrics regressed (> %.0f%% worse with |d| >= %.2f) vs %s",
			len(regs), cmp.Compared(), tol*100, effect, path)
	}
	fmt.Printf("regression check: %d gated metrics clean vs %s\n", cmp.Compared(), path)
	return cmp, nil
}

// writeReportArtifacts writes the suite outputs — results.json,
// results.csv (the flattened cell matrix), and the generated REPORT.md —
// into dir, creating it if needed. cmp may be nil (no -check-against).
func writeReportArtifacts(dir string, report *bench.Report, cmp *bench.Comparison, opts bench.ReportOptions) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := report.Encode()
	if err != nil {
		return err
	}
	cells := bench.Flatten(report, opts.CVThreshold)
	for name, content := range map[string][]byte{
		"results.json": data,
		"results.csv":  []byte(bench.CSV(cells)),
		"REPORT.md":    []byte(bench.GenerateReportMD(report, cmp, opts)),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("suite artifacts (results.json, results.csv, REPORT.md) written to %s\n", dir)
	return nil
}

func run(cfg bench.Config, experiment, csvPath, jsonPath string, quick bool) (*bench.Report, error) {
	report := &bench.Report{GeneratedNote: "paper-scale", Host: bench.CollectHost(), Config: &cfg}
	if quick {
		report.GeneratedNote = "quick-scale"
	}
	specs := bench.Experiments()
	requested := map[string]bool{}
	if experiment != "all" {
		specs = nil
		for _, name := range strings.Split(experiment, ",") {
			name = strings.TrimSpace(name)
			if name == "" || requested[name] {
				continue
			}
			spec, err := bench.FindExperiment(name)
			if err != nil {
				return nil, err
			}
			requested[spec.Name] = true
			specs = append(specs, spec)
		}
		if len(specs) == 0 {
			return nil, fmt.Errorf("-experiment %q selects nothing", experiment)
		}
	}
	for _, spec := range specs {
		if spec.Concurrent && !requested[spec.Name] {
			// Concurrent experiments (scale) run only on request: their
			// goroutines would interleave with the single-threaded tables'
			// timing loops.
			continue
		}
		if err := spec.Run(cfg, report); err != nil {
			return nil, err
		}
		if out := spec.Render(report); out != "" {
			fmt.Println(out)
		}
	}
	if csvPath != "" && report.Figure1 != nil {
		if err := os.WriteFile(csvPath, []byte(report.Figure1.CSV()), 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("figure 1 series written to %s\n\n", csvPath)
	}
	if snaps := telemetry.SnapshotAll(); len(snaps) > 0 {
		report.Telemetry = snaps
		fmt.Println("Per-graft telemetry:")
		for _, s := range snaps {
			fmt.Println("  " + s.String())
		}
		fmt.Println()
	}
	if jsonPath != "" {
		data, err := report.Encode()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("machine-readable results written to %s (%s)\n", jsonPath, bench.DurationsNote)
	}
	return report, nil
}
