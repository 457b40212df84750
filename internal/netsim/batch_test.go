package netsim_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"graftlab/internal/grafts"
	"graftlab/internal/mem"
	"graftlab/internal/netsim"
	"graftlab/internal/tech"
)

const matchPort = 5001

// trapFilter is the packet filter with a content-triggered trap: a frame
// whose first payload byte is 171 (0xAB) divides by zero. The trigger is
// a pure function of the frame bytes, so it fires identically on the
// single-frame and batched paths — which is what lets the differential
// test exercise mid-batch traps.
var trapFilter = tech.Source{
	Name: "pktfilter-trap",
	GEL: `
func filter(len) {
	var b = 0;
	if (len < 43) { return 0; }
	b = ld8(0x2000 + 42);
	if (b == 171) { return len / (b - 171); }
	if (ld8(0x2000 + 12) * 256 + ld8(0x2000 + 13) != 0x0800) { return 0; }
	if (ld8(0x2000 + 23) != 17) { return 0; }
	if (ld8(0x2000 + 36) * 256 + ld8(0x2000 + 37) != ld32(0x1000)) { return 0; }
	return 1;
}

func filter_batch(n) {
	var port = ld32(0x1000);
	var mask = 0;
	var bit = 1;
	var base = 0x2000;
	var lena = 0x1400;
	var va = 0x1800;
	var end = 0;
	var ok = 0;
	var b = 0;
	if (n > 32) { n = 32; }
	end = 0x1400 + n * 4;
	while (lena < end) {
		ok = 0;
		if (ld32(lena) >= 43) {
			b = ld8(base + 42);
			if (b == 171) { ok = ld32(lena) / (b - 171); }
			else if (ld8(base + 12) * 256 + ld8(base + 13) != 0x0800) { ok = 0; }
			else if (ld8(base + 23) != 17) { ok = 0; }
			else if (ld8(base + 36) * 256 + ld8(base + 37) != port) { ok = 0; }
			else { ok = 1; }
		}
		st32(va, ok);
		if (ok == 1) { mask = mask | bit; }
		bit = bit << 1;
		base = base + 512;
		lena = lena + 4;
		va = va + 4;
	}
	return mask;
}
`,
}

func buildFrame(port uint16, proto uint8, tag uint32) netsim.Packet {
	return netsim.Build(netsim.Header{
		EthType: netsim.EthTypeIPv4, Proto: proto,
		DstPort: port, PayloadLen: 64,
	}, tag)
}

// diffTrace builds a deterministic mixed trace: matching frames, frames
// for the port-table endpoint, frames for a downstream endpoint, TCP and
// runt frames, and trap-trigger frames on both matching and background
// traffic.
func diffTrace(n int) []netsim.Packet {
	out := make([]netsim.Packet, 0, n)
	for i := 0; i < n; i++ {
		var p netsim.Packet
		switch i % 9 {
		case 0, 3:
			p = buildFrame(matchPort, netsim.ProtoUDP, uint32(i))
		case 1:
			p = buildFrame(7000, netsim.ProtoUDP, uint32(i)) // port table
		case 2:
			p = buildFrame(6000, netsim.ProtoUDP, uint32(i)) // downstream
		case 4:
			p = buildFrame(80, netsim.ProtoTCP, uint32(i))
		case 5:
			// Runt: shorter than the filter's 43-byte floor.
			p = netsim.Build(netsim.Header{EthType: netsim.EthTypeIPv4, Proto: netsim.ProtoUDP, DstPort: matchPort}, uint32(i))
		default:
			p = buildFrame(uint16(10000+i), netsim.ProtoUDP, uint32(i))
		}
		if i%13 == 0 && len(p) > netsim.OffPayload {
			p[netsim.OffPayload] = 171 // trap trigger
		}
		out = append(out, p)
	}
	return out
}

// diffDemux builds one demultiplexer of the shape the differential test
// compares: a port-table endpoint, the graft filter under test, and a
// downstream host-function endpoint that sees only the frames the graft
// rejected. batch selects RegisterBatch vs Register for the graft.
func diffDemux(t *testing.T, src tech.Source, id tech.ID, opts tech.Options, batch, verdicts bool) *netsim.Demux {
	t.Helper()
	m := mem.New(grafts.PFMemSize)
	grafts.ConfigurePacketFilter(m, matchPort)
	g, err := tech.Load(id, src, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := netsim.NewDemux()
	if _, err := d.RegisterPort("port-7000", 7000); err != nil {
		t.Fatal(err)
	}
	if batch {
		cfg := grafts.PacketFilterBatchConfig(id)
		cfg.HasVerdicts = verdicts
		if _, err := d.RegisterBatch("graft", g, cfg); err != nil {
			t.Fatal(err)
		}
	} else {
		if _, err := d.Register("graft", g, "filter", grafts.PFBufAddr); err != nil {
			t.Fatal(err)
		}
	}
	d.RegisterFunc("downstream", func(p netsim.Packet) bool {
		return p.IsUDPv4() && p.DstPort() == 6000
	})
	return d
}

type demuxOutcome struct {
	names []string
	stats netsim.DemuxStats
	eps   map[string][2]uint64 // name -> {Matched, Errors}
}

func runSingle(d *netsim.Demux, trace []netsim.Packet) demuxOutcome {
	o := demuxOutcome{eps: map[string][2]uint64{}}
	for _, p := range trace {
		ep, _ := d.Deliver(p)
		o.names = append(o.names, epName(ep))
	}
	o.stats = d.Stats()
	return o
}

func runBatched(d *netsim.Demux, trace []netsim.Packet, chunk int) demuxOutcome {
	o := demuxOutcome{eps: map[string][2]uint64{}}
	for off := 0; off < len(trace); off += chunk {
		end := off + chunk
		if end > len(trace) {
			end = len(trace)
		}
		for _, ep := range d.DeliverBatch(trace[off:end]) {
			o.names = append(o.names, epName(ep))
		}
	}
	o.stats = d.Stats()
	return o
}

func epName(ep *netsim.Endpoint) string {
	if ep == nil {
		return ""
	}
	return ep.Name
}

func compareOutcomes(t *testing.T, label string, want, got demuxOutcome) {
	t.Helper()
	if want.stats != got.stats {
		t.Errorf("%s: stats diverge: single %+v, batched %+v", label, want.stats, got.stats)
	}
	if len(want.names) != len(got.names) {
		t.Fatalf("%s: %d vs %d assignments", label, len(want.names), len(got.names))
	}
	for i := range want.names {
		if want.names[i] != got.names[i] {
			t.Errorf("%s: frame %d assigned to %q single, %q batched", label, i, want.names[i], got.names[i])
		}
	}
}

// TestDeliverBatchMatchesDeliver is the differential batching property:
// over a mixed trace with mid-batch traps, DeliverBatch must produce
// byte-identical endpoint assignments and DemuxStats as N single-frame
// Deliver calls — at every chunk size, including 1 and ragged tails, and
// under both the verdict-table and the mask-only trap protocols.
func TestDeliverBatchMatchesDeliver(t *testing.T) {
	trace := diffTrace(117) // deliberately not a multiple of any chunk size below
	single := diffDemux(t, trapFilter, tech.Bytecode, tech.Options{}, false, false)
	want := runSingle(single, trace)
	if want.stats.Delivered == 0 || want.stats.Unclaimed == 0 {
		t.Fatalf("degenerate trace: %+v", want.stats)
	}
	trapped := wantErrors(single)
	if trapped == 0 {
		t.Fatal("trace produced no filter traps; the mid-batch trap property is untested")
	}

	for _, verdicts := range []bool{true, false} {
		for _, chunk := range []int{1, 3, 8, 32, 33, 117, 200} {
			label := fmt.Sprintf("verdicts=%v/chunk=%d", verdicts, chunk)
			d := diffDemux(t, trapFilter, tech.Bytecode, tech.Options{}, true, verdicts)
			got := runBatched(d, trace, chunk)
			compareOutcomes(t, label, want, got)
			if e := wantErrors(d); e != trapped {
				t.Errorf("%s: %d filter errors, single path had %d", label, e, trapped)
			}
		}
	}

	// The batched path must actually have batched: chunk 32 over 117
	// frames with one batch endpoint is far fewer crossings than frames.
	d := diffDemux(t, trapFilter, tech.Bytecode, tech.Options{}, true, true)
	runBatched(d, trace, 32)
	bs := d.BatchStats()
	if bs.Calls == 0 || bs.Frames == 0 || bs.Calls >= bs.Frames {
		t.Fatalf("batched run did not batch: %+v", bs)
	}
	if bs.Traps == 0 {
		t.Fatalf("trap trace produced no batch traps: %+v", bs)
	}
}

// TestDeliverBatchAllocatesOnlyResult pins the batch path's allocation
// budget: the per-frame result slice, which callers keep, is the one
// allocation per call. The pending-frame list is Demux scratch and each
// endpoint filters it in place, so frames passing through the graft and
// on to a later endpoint cost nothing more.
func TestDeliverBatchAllocatesOnlyResult(t *testing.T) {
	frames := make([]netsim.Packet, 0, 32)
	for i := 0; i < 32; i++ {
		port := []uint16{matchPort, 7000, 6000, uint16(10000 + i)}[i%4]
		frames = append(frames, buildFrame(port, netsim.ProtoUDP, uint32(i)))
	}
	for _, verdicts := range []bool{true, false} {
		d := diffDemux(t, trapFilter, tech.Bytecode, tech.Options{}, true, verdicts)
		names := map[string]int{}
		for _, ep := range d.DeliverBatch(frames) {
			names[epName(ep)]++
		}
		if names["graft"] != 8 || names["port-7000"] != 8 || names["downstream"] != 8 || names[""] != 8 {
			t.Fatalf("verdicts=%v: assignments %v, want 8 each", verdicts, names)
		}
		allocs := testing.AllocsPerRun(200, func() { d.DeliverBatch(frames) })
		if allocs != 1 {
			t.Errorf("verdicts=%v: DeliverBatch allocates %v times per call, want 1 (the result)", verdicts, allocs)
		}
	}
}

// wantErrors sums filter errors across a demux by re-deriving them from
// delivered stats: the graft endpoint is the only one that traps, so its
// Errors counter is the number of trap-trigger frames it saw.
func wantErrors(d *netsim.Demux) uint64 {
	var total uint64
	for _, ep := range d.Endpoints() {
		total += ep.Errors
	}
	return total
}

// TestBatchMatrixAllClasses runs the real packet filter under every
// technology class in tech.All (plus the baseline bytecode VM) through
// both delivery paths and requires agreement with each other and with
// the hand-written reference filter. This is the fourth graft column's
// netsim-side matrix: the batched protocol is not a bytecode-only trick.
func TestBatchMatrixAllClasses(t *testing.T) {
	trace := diffTrace(90)
	ref := grafts.ReferencePacketFilter(matchPort)
	var wantMatched uint64
	for _, p := range trace {
		if ref(p) {
			wantMatched++
		}
	}
	if wantMatched == 0 {
		t.Fatal("degenerate trace")
	}

	type cell struct {
		name string
		id   tech.ID
		opts tech.Options
	}
	cells := []cell{{name: "bytecode-baseline", id: tech.Bytecode, opts: tech.Options{VM: tech.VMBaseline}}}
	for _, id := range tech.All {
		cells = append(cells, cell{name: string(id), id: id})
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			single := diffDemux(t, grafts.PacketFilter, c.id, c.opts, false, false)
			want := runSingle(single, trace)
			batched := diffDemux(t, grafts.PacketFilter, c.id, c.opts, true, c.id != tech.Domain)
			got := runBatched(batched, trace, 32)
			compareOutcomes(t, c.name, want, got)
			var matched uint64
			for _, ep := range batched.Endpoints() {
				if ep.Name == "graft" {
					matched = ep.Matched
				}
			}
			if matched != wantMatched {
				t.Fatalf("graft matched %d frames, reference %d", matched, wantMatched)
			}
		})
	}
}

// TestBatchTrapAttributionFaultPlan pins the sentinel protocol against
// the access-scheduled fault injector: failing the Nth policy-level
// access mid-batch must drop exactly the in-flight frame (charged one
// error, everything else keeps its verdict), and the injected trap must
// surface identically across engines — the access sequence is a property
// of the program, not the policy.
func TestBatchTrapAttributionFaultPlan(t *testing.T) {
	frames := diffTrace(24)
	engines := []struct {
		name string
		id   tech.ID
		opts tech.Options
	}{
		{"native-unsafe", tech.NativeUnsafe, tech.Options{}},
		{"native-safe", tech.NativeSafe, tech.Options{}},
		{"sfi", tech.SFI, tech.Options{}},
		{"bytecode-opt", tech.Bytecode, tech.Options{VM: tech.VMOpt}},
		{"bytecode-baseline", tech.Bytecode, tech.Options{VM: tech.VMBaseline}},
		{"aot", tech.AOT, tech.Options{}},
	}

	run := func(id tech.ID, opts tech.Options, plan *mem.FaultPlan) (demuxOutcome, *netsim.Endpoint) {
		m := mem.New(grafts.PFMemSize)
		grafts.ConfigurePacketFilter(m, matchPort)
		m.Arm(plan)
		g, err := tech.Load(id, grafts.PacketFilter, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		d := netsim.NewDemux()
		ep, err := d.RegisterBatch("graft", g, grafts.PacketFilterBatchConfig(id))
		if err != nil {
			t.Fatal(err)
		}
		o := demuxOutcome{eps: map[string][2]uint64{}}
		for _, got := range d.DeliverBatch(frames) {
			o.names = append(o.names, epName(got))
		}
		o.stats = d.Stats()
		return o, ep
	}

	// Pass 1: count the accesses of a clean batched run.
	counter := &mem.FaultPlan{}
	base, baseEp := run(tech.Bytecode, tech.Options{}, counter)
	total := counter.Accesses()
	if total == 0 || baseEp.Errors != 0 {
		t.Fatalf("clean run: %d accesses, %d errors", total, baseEp.Errors)
	}

	// Pass 2: inject at the first access, mid-run, and the last access.
	for _, k := range []uint64{1, total / 2, total} {
		k := k
		t.Run(fmt.Sprintf("access-%d", k), func(t *testing.T) {
			var ref demuxOutcome
			var refKind mem.TrapKind
			for i, e := range engines {
				o, ep := run(e.id, e.opts, &mem.FaultPlan{FailOn: k})
				if ep.Errors != 1 {
					t.Fatalf("%s: %d errors, want exactly 1 (the in-flight frame)", e.name, ep.Errors)
				}
				var trap *mem.Trap
				if !errors.As(ep.LastErr, &trap) {
					t.Fatalf("%s: LastErr %v is not a trap", e.name, ep.LastErr)
				}
				if trap.Kind != mem.TrapOOBLoad && trap.Kind != mem.TrapOOBStore {
					t.Fatalf("%s: trap kind %v, want an injected OOB kind", e.name, trap.Kind)
				}
				// Exactly the in-flight frame is dropped: at most one frame
				// differs from the clean run, and only toward rejection.
				diffs := 0
				for j := range base.names {
					if o.names[j] != base.names[j] {
						diffs++
						if o.names[j] != "" {
							t.Fatalf("%s: frame %d gained an endpoint under fault injection", e.name, j)
						}
					}
				}
				if diffs > 1 {
					t.Fatalf("%s: fault at access %d changed %d frames, want at most the in-flight one", e.name, k, diffs)
				}
				if i == 0 {
					ref, refKind = o, trap.Kind
					continue
				}
				if trap.Kind != refKind {
					t.Fatalf("%s: trap kind %v, %s had %v", e.name, trap.Kind, engines[0].name, refKind)
				}
				for j := range ref.names {
					if o.names[j] != ref.names[j] {
						t.Fatalf("%s: frame %d assigned %q, %s assigned %q", e.name, j, o.names[j], engines[0].name, ref.names[j])
					}
				}
			}
		})
	}
}

// TestBatchFuelCliffKeepsRestOfBatch drives the metered engines into a
// mid-batch fuel cliff: the crossing traps, the frames with committed
// verdicts keep them, the in-flight frame is charged, and the tail is
// re-batched under a fresh budget until every frame has an outcome. The
// three engines that meter the same instruction stream must agree
// exactly.
func TestBatchFuelCliffKeepsRestOfBatch(t *testing.T) {
	frames := diffTrace(24)
	engines := []struct {
		name string
		id   tech.ID
		opts tech.Options
	}{
		{"bytecode-opt", tech.Bytecode, tech.Options{VM: tech.VMOpt}},
		{"bytecode-baseline", tech.Bytecode, tech.Options{VM: tech.VMBaseline}},
		{"aot", tech.AOT, tech.Options{}},
	}

	run := func(id tech.ID, opts tech.Options) (demuxOutcome, *netsim.Endpoint, netsim.BatchStats) {
		m := mem.New(grafts.PFMemSize)
		grafts.ConfigurePacketFilter(m, matchPort)
		g, err := tech.Load(id, grafts.PacketFilter, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		d := netsim.NewDemux()
		ep, err := d.RegisterBatch("graft", g, grafts.PacketFilterBatchConfig(id))
		if err != nil {
			t.Fatal(err)
		}
		o := demuxOutcome{eps: map[string][2]uint64{}}
		for _, got := range d.DeliverBatch(frames) {
			o.names = append(o.names, epName(got))
		}
		o.stats = d.Stats()
		return o, ep, d.BatchStats()
	}

	clean, cleanEp, _ := run(tech.Bytecode, tech.Options{})
	if cleanEp.Errors != 0 {
		t.Fatalf("clean run trapped: %d", cleanEp.Errors)
	}

	// Find the smallest budget that completes the whole delivery without
	// a trap, then run at half of it: the crossing is then guaranteed to
	// hit the cliff mid-batch.
	lo, hi := int64(1), int64(1<<20)
	for lo < hi {
		mid := (lo + hi) / 2
		_, ep, _ := run(tech.Bytecode, tech.Options{Fuel: mid})
		if ep.Errors == 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	budget := lo / 2
	if budget == 0 {
		t.Fatalf("fuel cliff %d too low to probe", lo)
	}

	var ref demuxOutcome
	var refErrors uint64
	for i, e := range engines {
		opts := e.opts
		opts.Fuel = budget
		o, ep, bs := run(e.id, opts)
		if ep.Errors == 0 {
			t.Fatalf("%s: budget %d produced no fuel trap", e.name, budget)
		}
		var trap *mem.Trap
		if !errors.As(ep.LastErr, &trap) || trap.Kind != mem.TrapFuel {
			t.Fatalf("%s: LastErr %v, want a fuel trap", e.name, ep.LastErr)
		}
		if bs.Traps == 0 {
			t.Fatalf("%s: no batch traps recorded: %+v", e.name, bs)
		}
		// Rest of the batch intact: no frame gains an endpoint, and every
		// frame the clean run rejected is still rejected — only accepted
		// frames can be downgraded, by being charged the trap in flight.
		for j := range clean.names {
			if o.names[j] != clean.names[j] && o.names[j] != "" {
				t.Fatalf("%s: frame %d reassigned %q -> %q under fuel pressure", e.name, j, clean.names[j], o.names[j])
			}
		}
		if got := o.stats.Delivered + ep.Errors; got < clean.stats.Delivered {
			t.Fatalf("%s: %d delivered + %d errors < %d clean deliveries: frames vanished",
				e.name, o.stats.Delivered, ep.Errors, clean.stats.Delivered)
		}
		if i == 0 {
			ref, refErrors = o, ep.Errors
			continue
		}
		if ep.Errors != refErrors {
			t.Fatalf("%s: %d errors, %s had %d — shared metering diverged", e.name, ep.Errors, engines[0].name, refErrors)
		}
		for j := range ref.names {
			if o.names[j] != ref.names[j] {
				t.Fatalf("%s: frame %d assigned %q, %s assigned %q", e.name, j, o.names[j], engines[0].name, ref.names[j])
			}
		}
	}
}

// TestStressConcurrentBatchDemux is the per-CPU-queue model under the
// race detector: W workers each check a pooled filter instance out,
// build a private demultiplexer over it, push a trace through the
// batched path, and verify the delivered count. The pool is the only
// shared object.
func TestStressConcurrentBatchDemux(t *testing.T) {
	trace := diffTrace(90)
	ref := grafts.ReferencePacketFilter(matchPort)
	var want uint64
	for _, p := range trace {
		if ref(p) {
			want++
		}
	}

	pool, err := tech.NewPool(tech.Bytecode, grafts.PacketFilter, tech.Options{}, tech.PoolConfig{
		MemSize: grafts.PFMemSize,
		Setup: func(m *mem.Memory) error {
			grafts.ConfigurePacketFilter(m, matchPort)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const workers = 8
	iters := 20
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				g, release, err := pool.Acquire()
				if err != nil {
					errCh <- err
					return
				}
				d := netsim.NewDemux()
				ep, err := d.RegisterBatch("graft", g, grafts.PacketFilterBatchConfig(tech.Bytecode))
				if err != nil {
					errCh <- err
					return
				}
				d.DeliverBatch(trace)
				if ep.Matched != want || ep.Errors != 0 {
					errCh <- fmt.Errorf("worker matched %d (errors %d), want %d", ep.Matched, ep.Errors, want)
					return
				}
				release()
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
