// Package bench regenerates the paper's evaluation: Tables 1-6, Figure 1,
// and the two ablations its text discusses (§5.4 explicit NIL checks,
// §5.5 SFI read protection). Each experiment returns its measurements as
// cells (suite.go), which its spec renders in the paper's table shape;
// cmd/graftbench is the CLI over this package.
package bench

import (
	"time"

	"graftlab/internal/disk"
	"graftlab/internal/tech"
)

// Config sizes the experiments. Paper scale is what §5 ran; Quick scale
// keeps CI fast while preserving every code path.
type Config struct {
	// Runs is the number of measurement repetitions per cell (paper: 30).
	Runs int
	// WarmupRuns is the number of discarded ramp-up repetitions executed
	// before the Runs measurements of every cell. The first runs of a
	// cold graft pay cache fills, branch-predictor training, and CPU
	// frequency ramp; counting them pollutes Min/P99 (and at Quick scale
	// even the mean). Defaults: 3 at paper scale, 1 at quick scale;
	// the runner clamps negatives to the scale's floor.
	WarmupRuns int
	// Seed fixes the pseudo-random inputs (skewed write streams, fill
	// patterns), so two runs of the same configuration measure identical
	// work — the reproducibility contract REPORT.md records.
	Seed int64
	// EvictIters is invocations per eviction-run (paper: 100,000).
	EvictIters int
	// MD5Bytes is the fingerprint input size (paper: 1 MB).
	MD5Bytes int
	// MD5ScriptBytes is the reduced input for the script class, whose
	// measurement is scaled linearly to MD5Bytes (the paper just waited
	// 50 minutes; we document the scaling instead).
	MD5ScriptBytes int
	// LDWrites is the logical-disk write count (paper: 262,144).
	LDWrites int
	// LDScriptWrites is the reduced count for the script class, scaled.
	LDScriptWrites int
	// HotListLen is the eviction hot-list length (paper: 64).
	HotListLen int
	// Frames is the resident-set size for the eviction benchmark.
	Frames int
	// SignalIters is the Table 1 iteration count (paper: 30 runs of 1000).
	SignalIters int
	// Exe is the executable used as the signal-measurement child; empty
	// disables Table 1's child-process measurement.
	Exe string
	// FaultPages is the lat_pagefault mapping size in pages.
	FaultPages int
	// DiskWriteBytes is the lmdd write size (paper used 8 MB-class runs).
	DiskWriteBytes int64
	// Geometry is the simulated disk.
	Geometry disk.Geometry
	// SimFaultTime overrides the simulated page-fault service time; zero
	// derives it from Geometry (seek + rotation + one-page transfer).
	SimFaultTime time.Duration
	// ScaleServiceTime is the simulated per-request device wait in the
	// E7 closed-loop scalability experiment: the I/O time a request's
	// graft decision is amortized against. Real wall time, so the
	// experiment keeps its shape on any host.
	ScaleServiceTime time.Duration
	// ScaleOps is E7's per-worker request count for the compiled classes
	// (slower classes run a reduced count, like the other tables).
	ScaleOps int
	// ScaleLDBlocks sizes the logical disk for E7's ldmap workload; it
	// must exceed the largest per-worker request count so the append log
	// never fills mid-measurement.
	ScaleLDBlocks int
	// VM selects the bytecode engine for every experiment's vm rows:
	// "opt" (default, the optimizing translator) or "baseline" (the
	// instruction-at-a-time reference interpreter).
	VM tech.VMMode
	// Telemetry records whether per-graft invocation metrics were enabled
	// during the run (graftbench -telemetry), so archived reports say
	// whether their numbers include the instrumentation overhead.
	Telemetry bool
}

// Default is the paper-scale configuration.
func Default() Config {
	return Config{
		Runs:           30,
		WarmupRuns:     3,
		Seed:           1996,
		EvictIters:     100000,
		MD5Bytes:       1 << 20,
		MD5ScriptBytes: 64 << 10,
		LDWrites:       262144,
		LDScriptWrites: 4096,
		HotListLen:     64,
		Frames:         256,
		SignalIters:    1000,
		FaultPages:     4096,
		DiskWriteBytes: 8 << 20,
		Geometry:       disk.DefaultGeometry(),

		ScaleServiceTime: 200 * time.Microsecond,
		ScaleOps:         256,
		ScaleLDBlocks:    16384,
	}
}

// Quick is the CI-scale configuration.
func Quick() Config {
	c := Default()
	c.Runs = 5
	c.WarmupRuns = 1
	c.EvictIters = 2000
	c.MD5Bytes = 256 << 10
	c.MD5ScriptBytes = 8 << 10
	c.LDWrites = 16384
	c.LDScriptWrites = 512
	c.SignalIters = 100
	c.FaultPages = 512
	c.DiskWriteBytes = 2 << 20
	c.ScaleOps = 64
	c.ScaleLDBlocks = 4096
	return c
}

// EffectiveWarmup is the warmup-run count the measurement helpers use:
// WarmupRuns when set, else 1, so a zero-value or old-schema Config still
// discards at least the coldest run. Use this, never the raw field.
func (c Config) EffectiveWarmup() int {
	if c.WarmupRuns > 0 {
		return c.WarmupRuns
	}
	return 1
}

// SimulatedFaultTime is the virtual cost of a disk-backed page fault under
// the configured geometry: seek + rotational latency + one block, the
// paper's Table 3 quantity for its model application ("the faulted data
// pages are scattered throughout the database").
func (c Config) SimulatedFaultTime() time.Duration {
	if c.SimFaultTime != 0 {
		return c.SimFaultTime
	}
	g := c.Geometry
	xfer := time.Duration(int64(g.BlockSize) * int64(time.Second) / g.TransferRate)
	return g.AvgSeek + g.HalfRotation + xfer
}
