// Command reqbench is graftlab's request benchmark. It drives whole
// kernel requests — a page reference, a 64 KB file write, a 32-frame
// receive batch — through the graft stack as deployed: kernel hook,
// grafts adapter, lifecycle slot, carrier, telemetry-instrumented
// engine, and for one tenant an upcall crossing. A traced run records
// spans around those calls and reports the per-layer breakdown.
//
//	bash reqbench/run.sh --workload fault-path --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the run
// manifest and per-tenant details. See README.md in this directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"graftlab/internal/telemetry"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "fault-path, write-path or rx-churn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the traced per-layer breakdown instead of the end-to-end metrics")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision to record in the manifest")
	flag.StringVar(&cfg.spansOut, "spans-out", "", "traced run: write the retained spans as JSON lines to this file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "reqbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "reqbench: -seconds must be positive")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	// One client goroutine and one upcall server run in lockstep. A
	// single P keeps every crossing a same-P handoff; with a second P the
	// idle P sometimes steals the server, and the crossing cost turns
	// bimodal from run to run.
	runtime.GOMAXPROCS(1)

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reqbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	for _, line := range []any{
		map[string]any{"manifest": manifest(cfg)},
		map[string]any{"details": rep.details},
		rep.result(cfg.trace),
	} {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintln(os.Stderr, "reqbench:", err)
			os.Exit(1)
		}
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "reqbench:", err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the report's declared metrics with their units.
func (r *report) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		ms[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	return result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: ms}
}

// manifest records the host shape and configuration a result came from.
func manifest(cfg config) map[string]any {
	tenants := map[string]string{}
	for _, c := range allClasses {
		id := string(c.id)
		if c.upcall {
			id += " behind upcall.NewDomain(g, 0)"
		}
		tenants[c.name] = id
	}
	interval := uint64(0)
	if ms := telemetry.Metrics(); len(ms) > 0 {
		interval = ms[0].Mask() + 1
	}
	return map[string]any{
		"workload":                  cfg.workload,
		"seed":                      cfg.seed,
		"seconds":                   cfg.seconds,
		"trace":                     cfg.trace,
		"nproc":                     runtime.NumCPU(),
		"gomaxprocs":                runtime.GOMAXPROCS(0),
		"cpu":                       cpuModel(),
		"go":                        runtime.Version(),
		"commit":                    cfg.commit,
		"telemetry_sample_interval": interval,
		"tenant_classes":            tenants,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
