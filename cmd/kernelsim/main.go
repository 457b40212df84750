// Command kernelsim drives the simulated extensible kernel through the
// paper's TPC-B page-eviction scenario and prints the outcome with and
// without the Prioritization graft installed — the qualitative story
// behind Table 2's break-even arithmetic.
//
// Usage:
//
//	kernelsim [-tech native-unsafe] [-frames 200] [-subtrees 2] [-passes 5]
//	          [-telemetry] [-metrics-addr :9090]
//
// -telemetry turns on the observability layer for the run: per-graft
// invocation counters (printed as a table afterwards) and the kernel
// trace ring, which records every kernel operation as a span (counted
// by span name). -metrics-addr additionally serves the live export
// surface (/metrics, /debug/telemetry.json, SSE /stream) for the
// duration of the run, so graftmon or a Prometheus scraper can watch
// the scenarios execute. See docs/observability.md.
//
// The interesting regime is a working set slightly larger than memory,
// rescanned: pure LRU then evicts exactly the pages about to be needed
// (the sequential-scan pathology §3.1 describes), while the hot-list
// graft redirects evictions to pages the application is done with.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"graftlab/internal/btree"
	"graftlab/internal/grafts"
	"graftlab/internal/kernel"
	"graftlab/internal/mem"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/vclock"
)

func main() {
	var (
		techName = flag.String("tech", string(tech.NativeUnsafe), "technology carrying the graft")
		frames   = flag.Int("frames", 200, "physical frames")
		subtrees = flag.Int("subtrees", 2, "third-level subtrees to scan")
		passes   = flag.Int("passes", 5, "scan passes over the subtree range")
		scenario = flag.String("scenario", "pageevict",
			"which hook point to drive: pageevict, sched, cache, readahead, swap, canary, watchdog, all")
		telem = flag.Bool("telemetry", false,
			"record per-graft counters and every kernel operation as a span; print them after the run")
		metricsAddr = flag.String("metrics-addr", "",
			"serve live /metrics (Prometheus text), /debug/telemetry.json, and SSE /stream on this address during the run (implies -telemetry)")
	)
	flag.Parse()
	if *metricsAddr != "" {
		*telem = true
	}
	if *telem {
		telemetry.SetEnabled(true)
		if err := telemetry.SetSpanSampleEvery(1); err != nil {
			fmt.Fprintf(os.Stderr, "kernelsim: %v\n", err)
			os.Exit(1)
		}
		telemetry.EnableSpans(1 << 14)
	}
	if *metricsAddr != "" {
		srv, err := telemetry.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kernelsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("serving live telemetry on http://%s (endpoints: /metrics, /debug/telemetry.json, /stream)\n", srv.Addr())
		defer srv.Close()
	}
	id := tech.ID(*techName)
	var err error
	switch *scenario {
	case "pageevict":
		err = run(id, *frames, *subtrees, *passes)
	case "sched":
		err = runSched(id)
	case "cache":
		err = runCache(id)
	case "readahead":
		err = runReadahead()
	case "swap":
		err = runSwap(id)
	case "canary":
		err = runCanary(id)
	case "watchdog":
		err = runWatchdog(id)
	case "all":
		for _, f := range []func() error{
			func() error { return run(id, *frames, *subtrees, *passes) },
			func() error { return runSched(id) },
			func() error { return runCache(id) },
			runReadahead,
			func() error { return runSwap(id) },
			func() error { return runCanary(id) },
			func() error { return runWatchdog(id) },
		} {
			if err = f(); err != nil {
				break
			}
		}
	default:
		err = fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kernelsim: %v\n", err)
		os.Exit(1)
	}
	if *telem {
		printTelemetry()
	}
}

// printTelemetry renders the live counters view: one row per (graft,
// technology) pair, then the retained kernel trace spans counted by
// name.
func printTelemetry() {
	snaps := telemetry.SnapshotAll()
	t := &stats.Table{
		Title:  "Per-graft telemetry",
		Header: []string{"graft", "tech", "invocations", "traps", "fuel", "p50", "p99", "max"},
		Caption: "Sampled latency quantiles (every 256th invocation, log2 buckets); see\n" +
			"docs/observability.md for the counter and histogram semantics.",
	}
	for _, s := range snaps {
		var traps uint64
		for _, n := range s.Traps {
			traps += n
		}
		t.AddRow(s.Graft, s.Tech,
			fmt.Sprint(s.Invocations), fmt.Sprint(traps), fmt.Sprint(s.FuelConsumed),
			stats.FormatDuration(s.LatencyP50), stats.FormatDuration(s.LatencyP99),
			stats.FormatDuration(s.LatencyMax))
	}
	fmt.Println(t)
	if st := telemetry.CurrentSpans(); st != nil {
		fmt.Printf("kernel trace spans (%d retained, %d dropped by ring overwrite):\n", st.Len(), st.Dropped())
		counts := map[string]int{}
		for _, s := range st.Spans() {
			counts[s.Name]++
		}
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-24s %d\n", name, counts[name])
		}
	}
}

func run(id tech.ID, frames, subtrees, passes int) error {
	tree := btree.MustBuild(btree.TPCBConfig())
	if subtrees > len(tree.L3) {
		subtrees = len(tree.L3)
	}

	scan := func(useGraft bool) (kernel.PagerStats, *vclock.Clock, error) {
		m := mem.New(grafts.PEMemSize)
		clock := &vclock.Clock{}
		pager, err := kernel.NewPager(kernel.PagerConfig{
			Frames:    frames,
			FaultTime: 14 * 1000 * 1000, // 14ms disk-backed fault
			Mem:       m,
			NodeBase:  grafts.PELRUNodeBase,
		}, clock)
		if err != nil {
			return kernel.PagerStats{}, nil, err
		}
		hot := grafts.NewHotList(m)
		if useGraft {
			g, err := tech.Load(id, grafts.PageEvict, m, tech.Options{})
			if err != nil {
				return kernel.PagerStats{}, nil, err
			}
			pager.SetPolicy(grafts.NewGraftEvictionPolicy(g))
		}
		for pass := 0; pass < passes; pass++ {
			err = tree.Scan(0, subtrees, func(a btree.Access) error {
				if a.HotList != nil {
					hot.Set(a.HotList)
				}
				if _, err := pager.Access(a.Page); err != nil {
					return err
				}
				hot.Remove(a.Page)
				return nil
			})
			if err != nil {
				return kernel.PagerStats{}, nil, err
			}
		}
		return pager.Stats(), clock, err
	}

	fmt.Printf("TPC-B b-tree: %d internal pages, %d data pages; %d passes over %d subtrees on %d frames\n\n",
		tree.NumInternalPages(), tree.NumDataPages(), passes, subtrees, frames)

	base, baseClock, err := scan(false)
	if err != nil {
		return err
	}
	withGraft, graftClock, err := scan(true)
	if err != nil {
		return err
	}

	t := &stats.Table{
		Title:  fmt.Sprintf("Page eviction with and without the graft (%s)", id),
		Header: []string{"configuration", "faults", "hits", "overrides", "virtual time"},
	}
	t.AddRow("default LRU",
		fmt.Sprint(base.Faults), fmt.Sprint(base.Hits), "-",
		stats.FormatDuration(baseClock.Now()))
	t.AddRow("eviction graft",
		fmt.Sprint(withGraft.Faults), fmt.Sprint(withGraft.Hits),
		fmt.Sprint(withGraft.PolicyOverrides),
		stats.FormatDuration(graftClock.Now()))
	fmt.Println(t)

	saved := int64(base.Faults) - int64(withGraft.Faults)
	fmt.Printf("faults saved by the graft: %d (%.2f%%)\n",
		saved, 100*float64(saved)/float64(base.Faults))
	return nil
}
