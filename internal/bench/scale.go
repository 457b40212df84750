package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"graftlab/internal/grafts"
	"graftlab/internal/kernel"
	"graftlab/internal/mem"
	"graftlab/internal/netsim"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/workload"
)

// The scalability experiment (E7 / Table 7) measures what the paper's
// uniprocessor evaluation could not: how each technology behaves when one
// loaded graft is driven from many kernel threads at once. The model is a
// closed-loop server — each worker owns a pooled instance and services
// requests back to back, where one request is a graft invocation followed
// by a simulated device wait (ScaleServiceTime, the time the kernel would
// spend on the I/O the graft decision enabled). The wait is real wall
// time, so the experiment has the same shape on any host: cheap
// (compiled-class) invocations hide under overlapping waits and
// throughput scales with the worker count even on one core, while
// expensive (script-class) invocations serialize on the CPU and flatline
// — the multicore restatement of the paper's break-even argument.

// scaleTechs are Table 7's technologies: one representative per class
// plus the SFI variant, so the table shows the compiled/interpreted split
// under concurrency.
var scaleTechs = []tech.ID{
	tech.CompiledUnsafe, tech.CompiledSFI, tech.NativeUnsafe,
	tech.Bytecode, tech.AOT, tech.Script,
}

// scaleWorkerCounts is 1/2/4 plus GOMAXPROCS when it exceeds 4.
func scaleWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	return counts
}

// scaleOps scales the per-worker request count to the class, like the
// single-threaded tables do, so script rows finish in bounded time while
// per-request cost stays exact.
func scaleOps(cfg Config, id tech.ID) int {
	switch id {
	case tech.Script:
		return max(cfg.ScaleOps/8, 8)
	case tech.Bytecode:
		return max(cfg.ScaleOps/4, 16)
	}
	return cfg.ScaleOps
}

// scaleWorkload is one of the four request types: a pool configuration
// plus a binder that turns a checked-out engine into a request closure
// for one worker.
type scaleWorkload struct {
	name    string
	poolCfg func(cfg Config) tech.PoolConfig
	bind    func(cfg Config, id tech.ID, g tech.Graft) (func() error, error)
}

// scaleEvictChain is the static LRU chain length baked into each
// eviction-workload instance; per-request cost is the hot-list search,
// not the chain walk, so a short chain suffices.
const scaleEvictChain = 64

// md5ChunkFor sizes the per-request fingerprint input to the class.
func md5ChunkFor(id tech.ID) int {
	switch id {
	case tech.Script:
		return 64
	case tech.Bytecode:
		return 1024
	}
	return 4096
}

var scaleWorkloads = []scaleWorkload{
	{
		// eviction: the Table 2 request — one hot-list search over a
		// baked-in LRU chain whose head is not hot.
		name: "eviction",
		poolCfg: func(cfg Config) tech.PoolConfig {
			return tech.PoolConfig{
				MemSize: grafts.PEMemSize,
				Setup: func(m *mem.Memory) error {
					hot := make([]kernel.PageID, cfg.HotListLen)
					for i := range hot {
						hot[i] = kernel.PageID(500000 + i)
					}
					grafts.NewHotList(m).Set(hot)
					for i := 0; i < scaleEvictChain; i++ {
						addr := uint32(grafts.PELRUNodeBase + kernel.LRUNodeSize*i)
						next := uint32(0)
						if i+1 < scaleEvictChain {
							next = addr + kernel.LRUNodeSize
						}
						m.St32U(addr, uint32(100+i))
						m.St32U(addr+4, next)
					}
					return nil
				},
			}
		},
		bind: func(cfg Config, id tech.ID, g tech.Graft) (func() error, error) {
			call := tech.Resolve(g, "evict")
			var argBuf [1]uint32
			return func() error {
				argBuf[0] = grafts.PELRUNodeBase
				v, _, err := call(telemetry.SpanCtx{}, argBuf[:])
				if err != nil {
					return err
				}
				if v != 100 {
					return fmt.Errorf("evict returned %d, want 100", v)
				}
				return nil
			}, nil
		},
	},
	{
		// md5: the Table 5 request — fingerprint one class-sized chunk
		// already resident in the instance's data window.
		name: "md5",
		poolCfg: func(cfg Config) tech.PoolConfig {
			return tech.PoolConfig{
				MemSize: grafts.MDMemSize,
				Setup: func(m *mem.Memory) error {
					grafts.SetupMD5Memory(m)
					chunk := make([]byte, md5ChunkFor(tech.CompiledUnsafe))
					workload.FillPattern(chunk, 7)
					m.WriteAt(grafts.MDBufAddr, chunk)
					return nil
				},
			}
		},
		bind: func(cfg Config, id tech.ID, g tech.Graft) (func() error, error) {
			if _, err := g.Invoke("md5_init"); err != nil {
				return nil, err
			}
			call := tech.Resolve(g, "md5_update")
			chunk := uint32(md5ChunkFor(id))
			var argBuf [2]uint32
			return func() error {
				argBuf[0] = grafts.MDBufAddr
				argBuf[1] = chunk
				_, _, err := call(telemetry.SpanCtx{}, argBuf[:])
				return err
			}, nil
		},
	},
	{
		// pktfilter: the fourth graft column's request — one batched
		// delivery of a 32-frame chunk through a private demultiplexer
		// (the per-CPU receive-queue model: each worker owns its own
		// demux over its own pooled filter instance).
		name: "pktfilter",
		poolCfg: func(cfg Config) tech.PoolConfig {
			return tech.PoolConfig{
				MemSize: grafts.PFMemSize,
				Setup: func(m *mem.Memory) error {
					grafts.ConfigurePacketFilter(m, 5001)
					return nil
				},
			}
		},
		bind: func(cfg Config, id tech.ID, g tech.Graft) (func() error, error) {
			frames, err := netsim.GenerateTrace(netsim.TraceConfig{
				Packets: 32, MatchPort: 5001, MatchFrac: 0.25, PayloadLen: 64, Seed: 77,
			})
			if err != nil {
				return nil, err
			}
			ref := grafts.ReferencePacketFilter(5001)
			var want uint64
			for _, p := range frames {
				if ref(p) {
					want++
				}
			}
			d := netsim.NewDemux()
			ep, err := d.RegisterBatch("pf", g, grafts.PacketFilterBatchConfig(id))
			if err != nil {
				return nil, err
			}
			var reqs uint64
			return func() error {
				d.DeliverBatch(frames)
				reqs++
				if ep.Errors != 0 || ep.Matched != want*reqs {
					return fmt.Errorf("pktfilter matched %d (errors %d), want %d", ep.Matched, ep.Errors, want*reqs)
				}
				return nil
			}, nil
		},
	},
	{
		// ldmap: the Table 6 request — one logical-disk write translation.
		// Binding re-initializes the instance's map (NewGraftMapper), so
		// the append log never outgrows the device across cells.
		name: "ldmap",
		poolCfg: func(cfg Config) tech.PoolConfig {
			return tech.PoolConfig{MemSize: grafts.LDMemSize}
		},
		bind: func(cfg Config, id tech.ID, g tech.Graft) (func() error, error) {
			blocks := uint32(cfg.ScaleLDBlocks)
			gm, err := grafts.NewGraftMapper(g, blocks)
			if err != nil {
				return nil, err
			}
			var i uint32
			return func() error {
				lb := i % blocks
				i++
				_, err := gm.MapWrite(lb)
				return err
			}, nil
		},
	},
}

// runScaleCell drives one (pool, workload, worker count) measurement and
// returns its throughput in requests per second and the summary of its
// per-request latencies (invocation + simulated wait). Each worker
// checks out an engine, binds its request closure, and the timed region
// starts only once every worker is ready — bind cost (map
// initialization, entry resolution) is setup, not service.
func runScaleCell(cfg Config, p *tech.Pool, w *scaleWorkload, id tech.ID, workers, ops int) (float64, stats.Sample, error) {
	var (
		ready, done sync.WaitGroup
		start       = make(chan struct{})
		lats        = make([][]time.Duration, workers)
		errs        = make([]error, workers)
	)
	wait := cfg.ScaleServiceTime
	for wk := 0; wk < workers; wk++ {
		ready.Add(1)
		done.Add(1)
		go func(wk int) {
			defer done.Done()
			g, release, err := p.Acquire()
			if err != nil {
				errs[wk] = err
				ready.Done()
				return
			}
			defer release()
			op, err := w.bind(cfg, id, g)
			if err != nil {
				errs[wk] = err
				ready.Done()
				return
			}
			samples := make([]time.Duration, 0, ops)
			ready.Done()
			<-start
			for i := 0; i < ops; i++ {
				t0 := time.Now()
				if err := op(); err != nil {
					errs[wk] = err
					return
				}
				if wait > 0 {
					time.Sleep(wait)
				}
				samples = append(samples, time.Since(t0))
			}
			lats[wk] = samples
		}(wk)
	}
	ready.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	wall := time.Since(t0)

	for _, err := range errs {
		if err != nil {
			return 0, stats.Sample{}, err
		}
	}
	var all []time.Duration
	for _, s := range lats {
		all = append(all, s...)
	}
	return float64(workers*ops) / wall.Seconds(), stats.Summarize(all), nil
}

// RunScale regenerates Table 7. Each (workload, technology) pair is a
// row named "workload/tech" holding ops_per_worker and instances (the
// pool instances ever created); each of its worker counts is a row named
// "workload/tech w=N" holding ops_per_sec with the per-request latency
// percentiles, speedup (the throughput over the same pair's 1-worker
// row) and ops (the request count across workers). The scalars are the
// simulated service time and GOMAXPROCS.
func RunScale(cfg Config) ([]Cell, error) {
	out := &cellList{exp: "scale"}
	out.add("", "service_time_ns", "ns", float64(cfg.ScaleServiceTime))
	out.add("", "max_procs", "count", float64(runtime.GOMAXPROCS(0)))
	for wi := range scaleWorkloads {
		w := &scaleWorkloads[wi]
		for _, id := range scaleTechs {
			pool, err := tech.NewPool(id, scaleSourceFor(w.name), tech.Options{VM: cfg.VM}, w.poolCfg(cfg))
			if err != nil {
				return nil, fmt.Errorf("scale %s/%s: %w", w.name, id, err)
			}
			pair := w.name + "/" + string(id)
			ops := scaleOps(cfg, id)
			var one float64 // the 1-worker throughput
			for _, workers := range scaleWorkerCounts() {
				thr, lat, err := runScaleCell(cfg, pool, w, id, workers, ops)
				if err != nil {
					pool.Close()
					return nil, fmt.Errorf("scale %s/%s w=%d: %w", w.name, id, workers, err)
				}
				row := fmt.Sprintf("%s w=%d", pair, workers)
				out.cells = append(out.cells, Cell{
					Experiment: out.exp, Row: row, Metric: "ops_per_sec", Unit: "ops/s", Value: thr,
					P50: float64(lat.P50), P95: float64(lat.P95), P99: float64(lat.P99),
				})
				speedup := 1.0
				if workers == 1 {
					one = thr
				} else if one > 0 {
					speedup = thr / one
				}
				out.add(row, "speedup", "ratio", speedup)
				out.add(row, "ops", "count", float64(workers*ops))
			}
			out.add(pair, "ops_per_worker", "count", float64(ops))
			out.add(pair, "instances", "count", float64(pool.Created()))
			pool.Close()
		}
	}
	return out.cells, nil
}

// scaleSourceFor maps a workload name to its graft source.
func scaleSourceFor(name string) tech.Source {
	switch name {
	case "eviction":
		return grafts.PageEvict
	case "md5":
		return grafts.MD5
	case "pktfilter":
		return grafts.PacketFilter
	default:
		return grafts.LDMap
	}
}

// scaleTable renders Table 7: one line per (workload, technology), one
// column per worker count.
func scaleTable(cells []Cell) *stats.Table {
	x := indexCells(cells)
	lines, workers := pivot(cells, "ops_per_sec", " ")
	t := &stats.Table{
		Title:  "Table 7: Multicore Graft Throughput (closed loop)",
		Header: append([]string{"workload", "technology"}, workers...),
		Caption: fmt.Sprintf(
			"Requests/sec for N workers sharing one tech.Pool; a request is one graft\n"+
				"invocation plus a %s simulated device wait (real wall time). Cheap\n"+
				"invocations hide under overlapping waits, so compiled-class throughput\n"+
				"scales with workers even on one core; script-class requests are compute-\n"+
				"bound and flatline — the paper's break-even argument, restated for\n"+
				"multicore. (xN) = speedup over 1 worker. GOMAXPROCS=%d on this host.",
			stats.FormatDuration(x.dur("", "service_time_ns")), int(x.v("", "max_procs"))),
	}
	for _, line := range lines {
		workload, id, _ := strings.Cut(line, "/")
		row := []string{workload, id}
		for _, w := range workers {
			if c, ok := x.cell(line+" "+w, "ops_per_sec"); ok {
				row = append(row, fmt.Sprintf("%s/s (x%.1f)", stats.Count(c.Value), x.v(line+" "+w, "speedup")))
			}
		}
		t.AddRow(row...)
	}
	return t
}
