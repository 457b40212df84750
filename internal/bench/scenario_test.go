package bench

import (
	"testing"

	"graftlab/internal/grafts"
	"graftlab/internal/netsim"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/workload"
)

// TestScenarioOperations pins what the root benchmarks rely on when they
// run a scenario's operation b.N times: runs continue where the last
// stopped, MD5 fingerprints back to back, the packet filter cycles its
// trace, and a full logical disk needs a Reset.
func TestScenarioOperations(t *testing.T) {
	cfg := tiny()
	cfg.Geometry.Blocks = 64
	load := Class(tech.CompiledUnsafe, tech.Options{})
	run := func(name string, sc Scenario, err error, n int) Scenario {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(sc.Close)
		if err := sc.Run(n); err != nil {
			t.Fatalf("%s: Run(%d): %v", name, n, err)
		}
		return sc
	}

	sc, err := EvictScenario(cfg, load)
	run("evict", sc, err, 100)
	input := make([]byte, 4<<10)
	workload.FillPattern(input, 3)
	sc, err = MD5Scenario(load, input)
	run("md5", sc, err, 3)
	trace, err := netsim.GenerateTrace(netsim.DefaultTrace(50))
	if err != nil {
		t.Fatal(err)
	}
	sc, err = PacketFilterScenario(load, trace)
	run("pktfilter", sc, err, 2*len(trace)+7)

	sc, err = LDScenario(cfg, load)
	ld := run("ld", sc, err, int(cfg.Geometry.Blocks))
	if err := ld.Run(1); err == nil {
		t.Error("ld: a write past a full log succeeded")
	}
	if err := ld.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := ld.Run(int(cfg.Geometry.Blocks)); err != nil {
		t.Errorf("ld: Run after Reset: %v", err)
	}
}

// TestScenarioCloseFlushesTelemetry: the metrics shim batches its call
// count between sampling points (every 256th call), so a Table 5
// scenario closed after fewer calls than that must flush on Close to
// show in SnapshotAll at all — here with its exact count: the
// constructor's md5_init, then per fingerprint a reset (after the
// first), one md5_update for an input within the buffer window, and
// md5_final.
func TestScenarioCloseFlushesTelemetry(t *testing.T) {
	telemetry.SetEnabled(true)
	telemetry.ResetMetrics()
	t.Cleanup(func() {
		telemetry.SetEnabled(false)
		telemetry.ResetMetrics()
	})
	input := make([]byte, 4<<10)
	workload.FillPattern(input, 5)
	sc, err := MD5Scenario(Class(tech.CompiledUnsafe, tech.Options{}), input)
	if err != nil {
		t.Fatal(err)
	}
	const fingerprints = 3
	if err := sc.Run(fingerprints); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	want := uint64(1 + 3*fingerprints - 1)
	for _, s := range telemetry.SnapshotAll() {
		if s.Graft == grafts.MD5.Name && s.Tech == string(tech.CompiledUnsafe) {
			if s.Invocations != want {
				t.Fatalf("%s/%s: %d invocations, want %d", s.Graft, s.Tech, s.Invocations, want)
			}
			return
		}
	}
	t.Fatalf("%s/%s missing from SnapshotAll after Close: %+v", grafts.MD5.Name, tech.CompiledUnsafe, telemetry.SnapshotAll())
}
