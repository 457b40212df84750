// Package graftlab's root benchmark suite: one testing.B benchmark per
// table and figure of the paper, runnable with
//
//	go test -bench=. -benchmem
//
// These are the same workloads cmd/graftbench drives, expressed as Go
// benchmarks so `go test -bench` regenerates the evaluation too.
package graftlab

import (
	"fmt"
	"os"
	"testing"
	"time"

	"graftlab/internal/bench"
	"graftlab/internal/compile"
	"graftlab/internal/disk"
	"graftlab/internal/gel"
	"graftlab/internal/grafts"
	"graftlab/internal/kernel"
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

func BenchmarkTable1GoroutineCrossing(b *testing.B) {
	g, err := tech.Load(tech.CompiledUnsafe, grafts.LDMap, mem.New(grafts.LDMemSize), tech.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := upcall.NewDomain(g, 0)
	defer d.Close()
	if _, err := grafts.NewGraftMapper(d, 1024); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Invoke("ld_read", uint32(i)%1024); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table 2 ----

// evictSetup builds the Table 2 scenario: 64-entry hot list, LRU chain in
// graft memory, candidate not hot.
func evictSetup(b *testing.B, id tech.ID, opts tech.Options) (tech.Handle, uint32) {
	b.Helper()
	m := mem.New(grafts.PEMemSize)
	g, err := tech.Load(id, grafts.PageEvict, m, opts)
	if err != nil {
		b.Fatal(err)
	}
	clock := &vclock.Clock{}
	pager, err := kernel.NewPager(kernel.PagerConfig{
		Frames: 256, Mem: m, NodeBase: grafts.PELRUNodeBase,
	}, clock)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if _, err := pager.Access(kernel.PageID(100 + i)); err != nil {
			b.Fatal(err)
		}
	}
	hot := grafts.NewHotList(m)
	pages := make([]kernel.PageID, 64)
	for i := range pages {
		pages[i] = kernel.PageID(500000 + i)
	}
	hot.Set(pages)
	return tech.Resolve(g, "evict"), pager.HeadAddr()
}

func BenchmarkTable2PageEvict(b *testing.B) {
	for _, id := range readOnlyGraftTechs {
		b.Run(string(id), func(b *testing.B) {
			call, head := evictSetup(b, id, tech.Options{})
			args := []uint32{head}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := call(telemetry.SpanCtx{}, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("bytecode-baseline", func(b *testing.B) {
		call, head := evictSetup(b, tech.Bytecode, tech.Options{VM: tech.VMBaseline})
		args := []uint32{head}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := call(telemetry.SpanCtx{}, args); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("upcall-server", func(b *testing.B) {
		m := mem.New(grafts.PEMemSize)
		g, err := tech.Load(tech.CompiledUnsafe, grafts.PageEvict, m, tech.Options{})
		if err != nil {
			b.Fatal(err)
		}
		clock := &vclock.Clock{}
		pager, err := kernel.NewPager(kernel.PagerConfig{
			Frames: 256, Mem: m, NodeBase: grafts.PELRUNodeBase,
		}, clock)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 256; i++ {
			pager.Access(kernel.PageID(100 + i))
		}
		grafts.NewHotList(m).Set([]kernel.PageID{500000})
		d := upcall.NewDomain(g, 0)
		defer d.Close()
		head := pager.HeadAddr()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Invoke("evict", head); err != nil {
				b.Fatal(err)
			}
		}
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

func BenchmarkTable5MD5(b *testing.B) {
	data := make([]byte, 1<<20)
	workload.FillPattern(data, 5)
	want := md5x.Of(data)
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
			g, err := tech.Load(id, grafts.MD5, mem.New(grafts.MDMemSize), va.opts)
			if err != nil {
				b.Fatal(err)
			}
			h, err := grafts.NewMD5Graft(g)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Reset(); err != nil {
					b.Fatal(err)
				}
				if _, err := h.Write(input); err != nil {
					b.Fatal(err)
				}
				got, err := h.Sum()
				if err != nil {
					b.Fatal(err)
				}
				if len(input) == len(data) && got != want {
					b.Fatal("wrong digest")
				}
			}
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

func BenchmarkTable6LogicalDisk(b *testing.B) {
	const blocks = 262144
	for _, id := range table2Techs {
		b.Run(string(id), func(b *testing.B) {
			g, err := tech.Load(id, grafts.LDMap, mem.New(grafts.LDMemSize), tech.Options{})
			if err != nil {
				b.Fatal(err)
			}
			gm, err := grafts.NewGraftMapper(g, blocks)
			if err != nil {
				b.Fatal(err)
			}
			stream := workload.NewSkewed(blocks, 1996)
			written := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if written == blocks { // log full: start a fresh mapper
					b.StopTimer()
					g, err = tech.Load(id, grafts.LDMap, mem.New(grafts.LDMemSize), tech.Options{})
					if err != nil {
						b.Fatal(err)
					}
					gm, err = grafts.NewGraftMapper(g, blocks)
					if err != nil {
						b.Fatal(err)
					}
					written = 0
					b.StartTimer()
				}
				if _, err := gm.MapWrite(stream.Next()); err != nil {
					b.Fatal(err)
				}
				written++
			}
		})
	}
}

// ---- Figure 1 ----

func BenchmarkFigure1UpcallSweep(b *testing.B) {
	for _, lat := range []time.Duration{0, 5 * time.Microsecond, 10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond} {
		b.Run(fmt.Sprintf("latency=%v", lat), func(b *testing.B) {
			m := mem.New(grafts.PEMemSize)
			g, err := tech.Load(tech.CompiledUnsafe, grafts.PageEvict, m, tech.Options{})
			if err != nil {
				b.Fatal(err)
			}
			clock := &vclock.Clock{}
			pager, err := kernel.NewPager(kernel.PagerConfig{
				Frames: 64, Mem: m, NodeBase: grafts.PELRUNodeBase,
			}, clock)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				pager.Access(kernel.PageID(100 + i))
			}
			grafts.NewHotList(m).Set([]kernel.PageID{500000})
			d := upcall.NewDomain(g, lat)
			defer d.Close()
			head := pager.HeadAddr()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Invoke("evict", head); err != nil {
					b.Fatal(err)
				}
			}
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
			m := mem.New(grafts.PFMemSize)
			g, err := tech.Load(id, grafts.PacketFilter, m, tech.Options{})
			if err != nil {
				b.Fatal(err)
			}
			grafts.ConfigurePacketFilter(m, 5001)
			call := tech.Resolve(g, "filter")
			args := []uint32{0}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := trace[i%len(trace)]
				m.WriteAt(grafts.PFBufAddr, p)
				args[0] = uint32(len(p))
				if _, _, err := call(telemetry.SpanCtx{}, args); err != nil {
					b.Fatal(err)
				}
			}
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
			call, head := evictSetup(b, id, tech.Options{})
			args := []uint32{head}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := call(telemetry.SpanCtx{}, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationSFIReadProtect(b *testing.B) {
	data := make([]byte, 256<<10)
	workload.FillPattern(data, 9)
	for _, id := range []tech.ID{tech.CompiledSFI, tech.CompiledSFIFull} {
		b.Run(string(id), func(b *testing.B) {
			g, err := tech.Load(id, grafts.MD5, mem.New(grafts.MDMemSize), tech.Options{})
			if err != nil {
				b.Fatal(err)
			}
			h, err := grafts.NewMD5Graft(g)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Reset(); err != nil {
					b.Fatal(err)
				}
				if _, err := h.Write(data); err != nil {
					b.Fatal(err)
				}
				if _, err := h.Sum(); err != nil {
					b.Fatal(err)
				}
			}
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
	evict := func(b *testing.B) {
		call, head := evictSetup(b, tech.CompiledUnsafe, tech.Options{})
		args := []uint32{head}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := call(telemetry.SpanCtx{}, args); err != nil {
				b.Fatal(err)
			}
		}
	}
	md5 := func(b *testing.B) {
		data := make([]byte, 256<<10)
		workload.FillPattern(data, 9)
		g, err := tech.Load(tech.CompiledUnsafe, grafts.MD5, mem.New(grafts.MDMemSize), tech.Options{})
		if err != nil {
			b.Fatal(err)
		}
		h, err := grafts.NewMD5Graft(g)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.Reset(); err != nil {
				b.Fatal(err)
			}
			if _, err := h.Write(data); err != nil {
				b.Fatal(err)
			}
			if _, err := h.Sum(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, on := range []bool{false, true} {
		state := "off"
		if on {
			state = "on"
		}
		b.Run("evict-telemetry-"+state, func(b *testing.B) {
			telemetry.SetEnabled(on)
			defer telemetry.SetEnabled(false)
			evict(b)
		})
		b.Run("md5-telemetry-"+state, func(b *testing.B) {
			telemetry.SetEnabled(on)
			defer telemetry.SetEnabled(false)
			md5(b)
		})
	}
	telemetry.ResetMetrics()
}

// BenchmarkAblationVMTranslator isolates the optimizing translator's
// pieces on the MD5 graft: the baseline interpreter, the full translator,
// fusion disabled, and per-instruction instead of block-granular fuel.
func BenchmarkAblationVMTranslator(b *testing.B) {
	data := make([]byte, 256<<10)
	workload.FillPattern(data, 9)
	prog, err := gel.ParseAndCheck(grafts.MD5.GEL)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := compile.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
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
			m := mem.New(grafts.MDMemSize)
			cfg := mem.Config{Policy: mem.PolicyChecked}
			var g tech.Graft
			if va.baseline {
				v, err := vm.New(mod, m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				g = v
			} else {
				v, err := vm.NewOpt(mod, m, cfg, va.oc)
				if err != nil {
					b.Fatal(err)
				}
				g = v
			}
			h, err := grafts.NewMD5Graft(g)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Reset(); err != nil {
					b.Fatal(err)
				}
				if _, err := h.Write(data); err != nil {
					b.Fatal(err)
				}
				if _, err := h.Sum(); err != nil {
					b.Fatal(err)
				}
			}
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
			call, head := evictSetup(b, tech.Script, tech.Options{ScriptParseCache: cache})
			args := []uint32{head}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := call(telemetry.SpanCtx{}, args); err != nil {
					b.Fatal(err)
				}
			}
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
