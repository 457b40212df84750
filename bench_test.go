// Package graftlab's root benchmark suite: one testing.B benchmark per
// table and figure of the paper, runnable with
//
//	go test -bench=. -benchmem
//
// Each graft benchmark builds its scenario with the same constructor
// cmd/graftbench times (internal/bench: EvictScenario, MD5Scenario,
// LDScenario, PacketFilterScenario) and runs its operation b.N times, so
// both front ends measure one definition of every workload.
package graftlab

import (
	"fmt"
	"os"
	"testing"
	"time"

	"graftlab/internal/bench"
	"graftlab/internal/disk"
	"graftlab/internal/grafts"
	"graftlab/internal/lmb"
	"graftlab/internal/md5x"
	"graftlab/internal/mem"
	"graftlab/internal/netsim"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/upcall"
	"graftlab/internal/vclock"
	"graftlab/internal/vm"
	"graftlab/internal/workload"
)

func TestMain(m *testing.M) {
	upcall.SignalChildMain() // Table 1 child mode
	os.Exit(m.Run())
}

// table2Techs are the technologies benchmarked per graft. The domain
// class appears only where its language can express the graft (eviction
// and packet filtering; not MD5 or the Logical Disk, which need stores).
var table2Techs = []tech.ID{
	tech.CompiledUnsafe, tech.CompiledSafe, tech.CompiledSafeNil,
	tech.CompiledSFI, tech.CompiledSFIFull,
	tech.NativeUnsafe, tech.Bytecode, tech.AOT, tech.Script,
}

var readOnlyGraftTechs = append(append([]tech.ID{}, table2Techs...), tech.Domain)

// ---- Table 1 ----

func BenchmarkTable1SignalDelivery(b *testing.B) {
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	iters := b.N
	if iters > 2000 {
		iters = 2000
	}
	res, err := upcall.MeasureSignal(exe, upcall.DefaultSignalBatch, iters)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.PerSignal.Nanoseconds()), "ns/signal")
}

// BenchmarkTable1GoroutineCrossing reports Table 1's crossing time: the
// round trip into an upcall domain running a no-op graft
// (upcall.MeasureCrossing), over b.N crossings.
func BenchmarkTable1GoroutineCrossing(b *testing.B) {
	per, err := upcall.MeasureCrossing(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(per.Nanoseconds()), "ns/crossing")
}

// ---- Table 2 ----

// benchCfg sizes the scenarios as graftbench's paper scale does: a
// 64-entry hot list on 256 frames, the default disk geometry and seed.
var benchCfg = bench.Default()

// runScenario times b.N operations of the scenario a constructor
// returned with err, and closes it.
func runScenario(b *testing.B, s bench.Scenario, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	if err := s.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// benchEvict times b.N eviction decisions of Table 2's scenario.
func benchEvict(b *testing.B, load bench.Loader) {
	s, err := bench.EvictScenario(benchCfg, load)
	runScenario(b, s, err)
}

func BenchmarkTable2PageEvict(b *testing.B) {
	for _, id := range readOnlyGraftTechs {
		b.Run(string(id), func(b *testing.B) {
			benchEvict(b, bench.Class(id, tech.Options{}))
		})
	}
	b.Run("bytecode-baseline", func(b *testing.B) {
		benchEvict(b, bench.Class(tech.Bytecode, tech.Options{VM: tech.VMBaseline}))
	})
	b.Run("upcall-server", func(b *testing.B) {
		benchEvict(b, bench.Upcall(tech.CompiledUnsafe, tech.Options{}, 0))
	})
}

// ---- Table 3 ----

func BenchmarkTable3PageFault(b *testing.B) {
	var total time.Duration
	var faults int
	for i := 0; i < b.N; i++ {
		res, err := lmb.MeasurePageFault(256)
		if err != nil {
			b.Fatal(err)
		}
		total += res.PerFault * time.Duration(res.Pages)
		faults += res.Pages
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(faults), "ns/fault")
}

// ---- Table 4 ----

func BenchmarkTable4DiskWrite(b *testing.B) {
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		if _, err := lmb.MeasureDiskWrite(os.TempDir(), 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4DiskModel(b *testing.B) {
	// Virtual-time cost of a 1 MB sequential write on the modeled disk;
	// reported as a metric since no wall time is consumed.
	clock := &vclock.Clock{}
	dev := disk.New(disk.DefaultGeometry(), clock)
	before := clock.Now()
	if _, err := dev.Write(0, 256); err != nil {
		b.Fatal(err)
	}
	cost := clock.Now() - before
	for i := 0; i < b.N; i++ {
		_ = i
	}
	b.ReportMetric(float64(cost.Milliseconds()), "model-ms/MB")
}

// ---- Table 5 ----

// benchMD5 times b.N fingerprints of input.
func benchMD5(b *testing.B, load bench.Loader, input []byte) {
	b.SetBytes(int64(len(input)))
	s, err := bench.MD5Scenario(load, input)
	runScenario(b, s, err)
}

func BenchmarkTable5MD5(b *testing.B) {
	data := make([]byte, 1<<20)
	workload.FillPattern(data, 5)
	type md5Variant struct {
		name string
		id   tech.ID
		opts tech.Options
	}
	var variants []md5Variant
	for _, id := range table2Techs {
		variants = append(variants, md5Variant{string(id), id, tech.Options{}})
	}
	variants = append(variants, md5Variant{"bytecode-baseline", tech.Bytecode, tech.Options{VM: tech.VMBaseline}})
	for _, va := range variants {
		id := va.id
		b.Run(va.name, func(b *testing.B) {
			input := data
			if id == tech.Script {
				input = data[:16<<10] // the Tcl class at 16 KB per iteration
			} else if id == tech.Bytecode || id == tech.NativeUnsafe || id == tech.AOT {
				input = data[:256<<10]
			}
			benchMD5(b, bench.Class(id, va.opts), input)
		})
	}
}

func BenchmarkTable5MD5Reference(b *testing.B) {
	// The pure-Go md5x implementation: the ceiling for the compiled class.
	data := make([]byte, 1<<20)
	workload.FillPattern(data, 5)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		md5x.Of(data)
	}
}

// ---- Table 6 ----

// BenchmarkTable6LogicalDisk times one mapped write per op. The log
// holds one write per block, so every full log is replaced by an empty
// one with the timer stopped.
func BenchmarkTable6LogicalDisk(b *testing.B) {
	capacity := int(benchCfg.Geometry.Blocks)
	for _, id := range table2Techs {
		b.Run(string(id), func(b *testing.B) {
			s, err := bench.LDScenario(benchCfg, bench.Class(id, tech.Options{}))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for left := b.N; left > 0; left -= capacity {
				if left < b.N {
					b.StopTimer()
					if err := s.Reset(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := s.Run(min(left, capacity)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 1 ----

// BenchmarkFigure1UpcallSweep times Table 2's scenario behind an upcall
// domain at the latencies graftbench measures Figure 1 at.
func BenchmarkFigure1UpcallSweep(b *testing.B) {
	for us := 0; us <= 50; us += 10 {
		lat := time.Duration(us) * time.Microsecond
		b.Run(fmt.Sprintf("latency=%v", lat), func(b *testing.B) {
			benchEvict(b, bench.Upcall(tech.CompiledUnsafe, tech.Options{}, lat))
		})
	}
}

// ---- Packet filter (the §2 extension domain) ----

func BenchmarkPacketFilter(b *testing.B) {
	trace, err := netsim.GenerateTrace(netsim.DefaultTrace(4096))
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range readOnlyGraftTechs {
		b.Run(string(id), func(b *testing.B) {
			s, err := bench.PacketFilterScenario(bench.Class(id, tech.Options{}), trace)
			runScenario(b, s, err)
		})
	}
}

// BenchmarkMPFDispatch reproduces the MPF argument [YUHARA94]: with many
// endpoints, per-frame cost under a linear filter scan grows with the
// endpoint count, while the merged port-table dispatch stays flat.
func BenchmarkMPFDispatch(b *testing.B) {
	trace, err := netsim.GenerateTrace(netsim.TraceConfig{
		Packets: 4096, MatchPort: 5015, MatchFrac: 0.1, PayloadLen: 16, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("linear-scan-%d-endpoints", n), func(b *testing.B) {
			d := netsim.NewDemux()
			for i := 0; i < n; i++ {
				m := mem.New(grafts.PFMemSize)
				g, err := tech.Load(tech.CompiledUnsafe, grafts.PacketFilter, m, tech.Options{})
				if err != nil {
					b.Fatal(err)
				}
				grafts.ConfigurePacketFilter(m, uint16(5000+i))
				if _, err := d.Register(fmt.Sprintf("udp:%d", 5000+i), g, "filter", grafts.PFBufAddr); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Deliver(trace[i%len(trace)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("merged-table-%d-endpoints", n), func(b *testing.B) {
			d := netsim.NewDemux()
			for i := 0; i < n; i++ {
				if _, err := d.RegisterPort(fmt.Sprintf("udp:%d", 5000+i), uint16(5000+i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Deliver(trace[i%len(trace)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations ----

func BenchmarkAblationNilCheck(b *testing.B) {
	for _, id := range []tech.ID{tech.CompiledSafe, tech.CompiledSafeNil} {
		b.Run(string(id), func(b *testing.B) {
			benchEvict(b, bench.Class(id, tech.Options{}))
		})
	}
}

// ablationMD5 is the 256 KB input of the MD5 ablations.
func ablationMD5() []byte {
	data := make([]byte, 256<<10)
	workload.FillPattern(data, 9)
	return data
}

func BenchmarkAblationSFIReadProtect(b *testing.B) {
	data := ablationMD5()
	for _, id := range []tech.ID{tech.CompiledSFI, tech.CompiledSFIFull} {
		b.Run(string(id), func(b *testing.B) {
			benchMD5(b, bench.Class(id, tech.Options{}), data)
		})
	}
}

// BenchmarkAblationTelemetry holds the observability layer to its
// documented <=2% budget on the two hottest workloads: the compiled
// eviction search (per-invocation counter cost at its worst, ~250ns of
// work per call) and the compiled MD5 stream (counter cost amortized over
// 96KB of work per call). Instrumentation is decided at load time, so
// each sub-benchmark loads its graft under the state it measures.
func BenchmarkAblationTelemetry(b *testing.B) {
	data := ablationMD5()
	load := bench.Class(tech.CompiledUnsafe, tech.Options{})
	for _, on := range []bool{false, true} {
		state := "off"
		if on {
			state = "on"
		}
		b.Run("evict-telemetry-"+state, func(b *testing.B) {
			telemetry.SetEnabled(on)
			defer telemetry.SetEnabled(false)
			benchEvict(b, load)
		})
		b.Run("md5-telemetry-"+state, func(b *testing.B) {
			telemetry.SetEnabled(on)
			defer telemetry.SetEnabled(false)
			benchMD5(b, load, data)
		})
	}
	telemetry.ResetMetrics()
}

// BenchmarkAblationVMTranslator isolates the optimizing translator's
// pieces on the MD5 graft: the baseline interpreter, the full translator,
// fusion disabled, and per-instruction instead of block-granular fuel.
func BenchmarkAblationVMTranslator(b *testing.B) {
	data := ablationMD5()
	variants := []struct {
		name     string
		baseline bool
		oc       vm.OptConfig
	}{
		{"baseline", true, vm.OptConfig{}},
		{"opt", false, vm.OptConfig{}},
		{"opt-nofuse", false, vm.OptConfig{NoFuse: true}},
		{"opt-perinstr-fuel", false, vm.OptConfig{PerInstrFuel: true}},
	}
	for _, va := range variants {
		b.Run(va.name, func(b *testing.B) {
			benchMD5(b, bench.Translator(va.baseline, va.oc), data)
		})
	}
}

// BenchmarkAblationScriptParseCache shows what the Tcl class's defining
// per-eval re-parse costs: the eviction graft with and without the
// structural parse cache (the cache stays off everywhere else).
func BenchmarkAblationScriptParseCache(b *testing.B) {
	for _, cache := range []bool{false, true} {
		name := "reparse"
		if cache {
			name = "parse-cache"
		}
		b.Run(name, func(b *testing.B) {
			benchEvict(b, bench.Class(tech.Script, tech.Options{ScriptParseCache: cache}))
		})
	}
}

// Sanity test so the root package has a test beyond benchmarks: the
// quick-scale harness runs end to end.
func TestQuickHarnessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick harness")
	}
	cfg := bench.Quick()
	cfg.Runs = 2
	cfg.EvictIters = 500
	cfg.MD5Bytes = 32 << 10
	cfg.MD5ScriptBytes = 4 << 10
	cfg.LDWrites = 4096
	cfg.LDScriptWrites = 256
	ev, err := bench.RunEviction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bench.RunFigure1(cfg, ev); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.RunMD5(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.RunLD(cfg); err != nil {
		t.Fatal(err)
	}
}
