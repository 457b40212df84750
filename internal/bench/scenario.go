package bench

import (
	"fmt"
	"time"

	"graftlab/internal/compile"
	"graftlab/internal/gel"
	"graftlab/internal/grafts"
	"graftlab/internal/kernel"
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

// This file holds the one definition of each graft workload the suite
// times: the fixed scenario of a Table 2, 5 or 6 row, a Figure 1 point,
// a packet-filter row or an ablation variant. graftbench times a
// scenario through measureSeries; the root package's testing.B
// benchmarks run the same scenario's operation b.N times.

// A Scenario is one bench cell's fixed workload, built once by its
// constructor. Run performs the next n operations and checks each
// result, so broken code fails its run instead of being timed. Reset,
// when set, puts the scenario back in its starting state; measureSeries
// calls it untimed before every timed run. Close releases what the
// constructor started.
type Scenario struct {
	Run   func(n int) error
	Reset func() error
	Close func()
}

// A Loader loads a scenario's graft of src bound to memory m, returning
// it with a closer for whatever it started alongside.
type Loader func(src tech.Source, m *mem.Memory) (tech.Graft, func(), error)

// Class loads under the registry technology id with opts. Its closer
// flushes the graft's batched telemetry (tech.Flush), so a scenario that
// ran fewer calls than one sampling interval still shows in the run's
// telemetry snapshot.
func Class(id tech.ID, opts tech.Options) Loader {
	return func(src tech.Source, m *mem.Memory) (tech.Graft, func(), error) {
		g, err := tech.Load(id, src, m, opts)
		return g, func() { tech.Flush(g) }, err
	}
}

// Upcall loads like Class and puts the graft behind an upcall domain
// whose crossings each add latency: the paper's user-level server.
func Upcall(id tech.ID, opts tech.Options, latency time.Duration) Loader {
	return func(src tech.Source, m *mem.Memory) (tech.Graft, func(), error) {
		g, err := tech.Load(id, src, m, opts)
		if err != nil {
			return nil, nil, err
		}
		d := upcall.NewDomain(g, latency)
		return d, func() { d.Close(); tech.Flush(g) }, nil
	}
}

// Translator builds src's GEL directly on the bytecode VM over checked
// memory: the baseline interpreter, or the optimizing translator with
// oc's pieces switched off (ablation A4's knobs, which tech.Options does
// not carry).
func Translator(baseline bool, oc vm.OptConfig) Loader {
	return func(src tech.Source, m *mem.Memory) (tech.Graft, func(), error) {
		prog, err := gel.ParseAndCheck(src.GEL)
		if err != nil {
			return nil, nil, err
		}
		mod, err := compile.Compile(prog)
		if err != nil {
			return nil, nil, err
		}
		cfg := mem.Config{Policy: mem.PolicyChecked}
		if baseline {
			v, err := vm.New(mod, m, cfg)
			return v, func() {}, err
		}
		v, err := vm.NewOpt(mod, m, cfg, oc)
		return v, func() {}, err
	}
}

// EvictScenario is Table 2's fixed scenario: resident pages
// 100..100+cfg.Frames, none of them hot, and a cfg.HotListLen-entry hot
// list of distinct non-resident pages, so each operation is one eviction
// decision that searches the whole hot list and picks the LRU head —
// "the mean time required to search a 64 element hot list" (Table 2
// caption). Each decision calls through the resolved entry, as a kernel
// hook point would.
func EvictScenario(cfg Config, load Loader) (Scenario, error) {
	m := mem.New(grafts.PEMemSize)
	g, closer, err := load(grafts.PageEvict, m)
	if err != nil {
		return Scenario{}, err
	}
	fail := func(err error) (Scenario, error) {
		closer()
		return Scenario{}, err
	}
	pager, err := kernel.NewPager(kernel.PagerConfig{
		Frames: cfg.Frames, Mem: m, NodeBase: grafts.PELRUNodeBase,
	}, &vclock.Clock{})
	if err != nil {
		return fail(err)
	}
	for i := 0; i < cfg.Frames; i++ {
		if _, err := pager.Access(kernel.PageID(100 + i)); err != nil {
			return fail(err)
		}
	}
	hotPages := make([]kernel.PageID, cfg.HotListLen)
	for i := range hotPages {
		hotPages[i] = kernel.PageID(500000 + i)
	}
	grafts.NewHotList(m).Set(hotPages)
	h := &evictHarness{call: tech.Resolve(g, "evict"), headAddr: pager.HeadAddr(), wantPage: 100}
	if err := h.invoke(); err != nil {
		return fail(err)
	}
	return Scenario{
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				if err := h.invoke(); err != nil {
					return err
				}
			}
			return nil
		},
		Close: closer,
	}, nil
}

// evictHarness is one eviction decision with its argument buffer.
type evictHarness struct {
	call     tech.Handle
	argBuf   [1]uint32
	headAddr uint32
	wantPage uint32
}

// invoke runs one eviction decision and validates the result.
func (h *evictHarness) invoke() error {
	h.argBuf[0] = h.headAddr
	v, _, err := h.call(telemetry.SpanCtx{}, h.argBuf[:])
	if err != nil {
		return err
	}
	if v != h.wantPage {
		return fmt.Errorf("bench: evict returned %d, want %d", v, h.wantPage)
	}
	return nil
}

// MD5Scenario is Table 5's: each operation fingerprints input and checks
// the digest against md5x. Reset reinitializes the digest state; Run
// resets between its own fingerprints, so only a run's first starts from
// the state Reset (or the constructor) left.
func MD5Scenario(load Loader, input []byte) (Scenario, error) {
	g, closer, err := load(grafts.MD5, mem.New(grafts.MDMemSize))
	if err != nil {
		return Scenario{}, err
	}
	h, err := grafts.NewMD5Graft(g)
	if err != nil {
		closer()
		return Scenario{}, err
	}
	want := md5x.Of(input)
	return Scenario{
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				if i > 0 {
					if err := h.Reset(); err != nil {
						return err
					}
				}
				if _, err := h.Write(input); err != nil {
					return err
				}
				got, err := h.Sum()
				if err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("bench: md5 graft computed wrong digest")
				}
			}
			return nil
		},
		Reset: h.Reset,
		Close: closer,
	}, nil
}

// LDScenario is Table 6's: each operation maps the next write of an
// 80/20-skewed stream (seeded by cfg.Seed) over cfg.Geometry.Blocks
// logical blocks. Reset starts an empty log and the stream over; the log
// holds cfg.Geometry.Blocks writes, so a caller that runs more resets
// between them.
func LDScenario(cfg Config, load Loader) (Scenario, error) {
	g, closer, err := load(grafts.LDMap, mem.New(grafts.LDMemSize))
	if err != nil {
		return Scenario{}, err
	}
	blocks := cfg.Geometry.Blocks
	var (
		gm     *grafts.GraftMapper
		stream *workload.Skewed
	)
	reset := func() (err error) {
		stream = workload.NewSkewed(blocks, uint64(cfg.Seed))
		gm, err = grafts.NewGraftMapper(g, blocks)
		return err
	}
	if err := reset(); err != nil {
		closer()
		return Scenario{}, err
	}
	return Scenario{
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := gm.MapWrite(stream.Next()); err != nil {
					return err
				}
			}
			return nil
		},
		Reset: reset,
		Close: closer,
	}, nil
}

// PacketFilterScenario is the packet-filter experiment's: the filter
// configured for UDP port 5001, each operation one frame of packets
// (cycling) copied into the graft's buffer and classified, the verdict
// checked against the reference filter.
func PacketFilterScenario(load Loader, packets []netsim.Packet) (Scenario, error) {
	g, closer, err := load(grafts.PacketFilter, mem.New(grafts.PFMemSize))
	if err != nil {
		return Scenario{}, err
	}
	m := g.Memory()
	grafts.ConfigurePacketFilter(m, 5001)
	call := tech.Resolve(g, "filter")
	ref := grafts.ReferencePacketFilter(5001)
	accept := make([]bool, len(packets))
	for i, p := range packets {
		accept[i] = ref(p)
	}
	args := make([]uint32, 1)
	next := 0
	return Scenario{
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				p := packets[next]
				m.WriteAt(grafts.PFBufAddr, p)
				args[0] = uint32(len(p))
				v, _, err := call(telemetry.SpanCtx{}, args)
				if err != nil {
					return err
				}
				if (v != 0) != accept[next] {
					return fmt.Errorf("bench: filter verdict %d on frame %d, want match=%v", v, next, accept[next])
				}
				if next++; next == len(packets) {
					next = 0
				}
			}
			return nil
		},
		Close: closer,
	}, nil
}
