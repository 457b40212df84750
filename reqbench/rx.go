package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"graftlab/internal/grafts"
	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/netsim"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/workload"
)

// rx-churn: the data plane and the control plane share one thread. One
// request is one DeliverBatch of 32 frames into a tenant's receive queue:
// two native port-table endpoints plus the tenant's batch packet-filter
// graft. Between requests a control plane works through a fixed script
// of rxCycles cycles spread evenly over the run: it deploys a textually
// distinct, semantically identical version of one tenant's filter as a
// 1-in-rxCanaryEvery canary, promotes it (every third time per tenant,
// rolls back instead) rxPromoteAfter requests later, offers an invalid
// artifact on every other cycle, and every rxScrapeEvery cycles renders
// /metrics in-process, parses it, and runs the armed watchdog. The
// upcall tenant serves traffic but is never redeployed: slots never
// close retired carriers, so each old version would strand a server.
const (
	rxBatch        = 32
	rxPool         = 8192 // frames in the seeded pool requests cycle through
	rxFilterPort   = 5001 // the graft endpoint's port
	rxPortA        = 7001 // port-table endpoints
	rxPortB        = 7002
	rxCycles       = 40
	rxCanaryEvery  = 4
	rxPromoteAfter = 600
	rxScrapeEvery  = 4
)

// Claimants of a frame: nobody, a port-table endpoint, or the filter.
const (
	claimNone = iota
	claimPortA
	claimPortB
	claimFilter
	numClaims
)

type rxChurn struct {
	seed   uint64
	pool   []netsim.Packet
	want   []uint8 // expected claimant per pool frame
	starts []int   // per tenant: first pool frame

	st      *stack
	draw    *rounds
	ts      []*rxTenant
	handler http.Handler
	wd      *telemetry.Watchdog

	// the drawn request and its result
	start int
	got   []*netsim.Endpoint

	// control-plane script state
	served int64
	cycle  int
	due    *rxTenant
	dueAt  int64

	stage, promote, rollback, scrape, watchdog durSum
	rejects, series, registered                int
}

type rxTenant struct {
	class    int
	slot     *lifecycle.Slot
	demux    *netsim.Demux
	eps      [numClaims]*netsim.Endpoint // eps[claimNone] is nil
	cursor   int
	version  uint64
	resolved int // canary cycles resolved
}

func newRxChurn(seed uint64, corrupt bool) (*rxChurn, error) {
	gen := func(port uint16, frac float64, s uint64) ([]netsim.Packet, error) {
		return netsim.GenerateTrace(netsim.TraceConfig{
			Packets: rxPool, MatchPort: port, MatchFrac: frac, PayloadLen: 64, Seed: s,
		})
	}
	filt, err := gen(rxFilterPort, 0.3, 3*seed+1)
	if err != nil {
		return nil, err
	}
	portA, err := gen(rxPortA, 0.5, 3*seed+2)
	if err != nil {
		return nil, err
	}
	portB, err := gen(rxPortB, 0.5, 3*seed+3)
	if err != nil {
		return nil, err
	}
	w := &rxChurn{seed: seed}
	rng := workload.NewRNG(seed)
	accept := grafts.ReferencePacketFilter(rxFilterPort)
	for i := 0; i < rxPool; i++ {
		var p netsim.Packet
		switch rng.Uint32n(4) {
		case 0, 1:
			p = filt[i]
		case 2:
			p = portA[i]
		default:
			p = portB[i]
		}
		want := uint8(claimNone)
		switch {
		case p.IsUDPv4() && p.DstPort() == rxPortA:
			want = claimPortA
		case p.IsUDPv4() && p.DstPort() == rxPortB:
			want = claimPortB
		case accept(p):
			want = claimFilter
		}
		w.pool = append(w.pool, p)
		w.want = append(w.want, want)
	}
	if corrupt {
		w.want[0] = (w.want[0] + 1) % numClaims
	}
	for range allClasses {
		w.starts = append(w.starts, rxBatch*int(rng.Uint32n(rxPool/rxBatch)))
	}
	return w, nil
}

func (w *rxChurn) classes() []int {
	cs := make([]int, len(allClasses))
	for c := range cs {
		cs[c] = c
	}
	return cs
}

func (w *rxChurn) setup(st *stack) error {
	w.st = st
	w.ts = nil
	for c := range allClasses {
		m := mem.New(grafts.PFMemSize)
		grafts.ConfigurePacketFilter(m, rxFilterPort)
		slot, g, err := st.host("rx."+allClasses[c].name, c, grafts.PacketFilter, m)
		if err != nil {
			return err
		}
		rt := &rxTenant{class: c, slot: slot, demux: netsim.NewDemux(), cursor: w.starts[c], version: 1}
		if rt.eps[claimPortA], err = rt.demux.RegisterPort("port-a", rxPortA); err != nil {
			return err
		}
		if rt.eps[claimPortB], err = rt.demux.RegisterPort("port-b", rxPortB); err != nil {
			return err
		}
		if rt.eps[claimFilter], err = rt.demux.RegisterBatch("filter", g, grafts.PacketFilterBatchConfig(allClasses[c].id)); err != nil {
			return err
		}
		w.ts = append(w.ts, rt)
	}
	w.draw = newRounds(len(w.ts), w.seed^0x3c6ef372fe94f82b)
	w.handler = telemetry.NewMetricsHandler()
	w.wd = telemetry.NewWatchdog(telemetry.SLO{MaxP99: time.Second})
	st.reg.Arm(w.wd)
	w.served, w.cycle, w.due = 0, 0, nil
	w.stage, w.promote, w.rollback, w.scrape, w.watchdog = durSum{}, durSum{}, durSum{}, durSum{}, durSum{}
	w.rejects, w.series, w.registered = 0, 0, 0
	return nil
}

func (w *rxChurn) prepare() {}

func (w *rxChurn) pick() int {
	t := w.draw.pick()
	rt := w.ts[t]
	w.start = rt.cursor
	rt.cursor = (rt.cursor + rxBatch) % rxPool
	return t
}

func (w *rxChurn) serve(t int) error {
	frames := w.pool[w.start : w.start+rxBatch]
	if w.st.rec == nil {
		w.got = w.ts[t].demux.DeliverBatch(frames)
		return nil
	}
	i := w.st.rec.begin(layerDemux, -1)
	w.got = w.ts[t].demux.DeliverBatch(frames)
	w.st.rec.end(i)
	return nil
}

// check compares every frame's claimant with the port table and
// grafts.ReferencePacketFilter.
func (w *rxChurn) check(t int) bool {
	rt := w.ts[t]
	for i, ep := range w.got {
		if ep != rt.eps[w.want[w.start+i]] {
			return false
		}
	}
	return true
}

func (w *rxChurn) between(elapsed, total time.Duration) int64 {
	w.served++
	var failed int64
	if w.due != nil && w.served >= w.dueAt {
		failed += w.resolve()
	}
	if w.due == nil && w.cycle < rxCycles && elapsed >= total*time.Duration(w.cycle)/rxCycles {
		failed += w.runCycle()
	}
	return failed
}

func (w *rxChurn) finished(pastDeadline bool) bool {
	return pastDeadline && w.cycle >= rxCycles && w.due == nil
}

// redeployed lists the classes the control plane rotates over.
var redeployed = []int{classC, classCodegen, classAOT, classBytecode, classDomain}

// runCycle runs one control-plane cycle and returns the number of
// operations that went wrong.
func (w *rxChurn) runCycle() int64 {
	j := w.cycle
	w.cycle++
	rt := w.ts[redeployed[j%len(redeployed)]]
	var failed int64
	if j%2 == 1 {
		if bad, ok := invalidFilter(allClasses[rt.class].id, j/2); ok {
			failed += w.refuse(rt, bad)
		}
	}
	rt.version++
	a := tech.NewArtifact(filterVersion(rt.version), rt.version)
	t0 := time.Now()
	err := rt.slot.Stage(a, nil, rxCanaryEvery)
	d := time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rx-churn: stage %s: %v\n", a.Ref(), err)
		return failed + 1
	}
	w.stage.add(d)
	w.due, w.dueAt = rt, w.served+rxPromoteAfter
	if j%rxScrapeEvery == rxScrapeEvery-1 {
		failed += w.scrapeAndCheck()
	}
	return failed
}

// resolve ends the pending canary: promote, or every third time per
// tenant roll back (which needs the promote before it).
func (w *rxChurn) resolve() int64 {
	rt := w.due
	w.due = nil
	rt.resolved++
	t0 := time.Now()
	var err error
	if rt.resolved%3 == 0 {
		err = rt.slot.Rollback()
		w.rollback.add(time.Since(t0))
	} else {
		err = rt.slot.Promote()
		w.promote.add(time.Since(t0))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rx-churn: resolving canary on %s: %v\n", rt.slot.Name(), err)
		return 1
	}
	return 0
}

// refuse offers an invalid artifact; it must be refused with the slot's
// epoch and incumbent unchanged.
func (w *rxChurn) refuse(rt *rxTenant, bad tech.Source) int64 {
	epoch, inc := rt.slot.Epoch(), rt.slot.Incumbent()
	err := rt.slot.Stage(tech.NewArtifact(bad, rt.version+1), nil, rxCanaryEvery)
	if err == nil || rt.slot.Epoch() != epoch || rt.slot.Incumbent() != inc {
		fmt.Fprintf(os.Stderr, "rx-churn: invalid artifact on %s was not refused cleanly (err=%v)\n", rt.slot.Name(), err)
		return 1
	}
	w.rejects++
	return 0
}

// scrapeAndCheck renders /metrics in-process, parses it, and runs the
// armed watchdog, whose generous SLO must flag nothing.
func (w *rxChurn) scrapeAndCheck() int64 {
	t0 := time.Now()
	rr := httptest.NewRecorder()
	w.handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples, err := telemetry.ParsePromText(rr.Body.String())
	w.scrape.add(time.Since(t0))
	if err != nil || rr.Code != http.StatusOK {
		fmt.Fprintf(os.Stderr, "rx-churn: /metrics scrape: status %d, %v\n", rr.Code, err)
		return 1
	}
	w.series = len(samples)
	t1 := time.Now()
	v := w.wd.Check()
	w.watchdog.add(time.Since(t1))
	w.registered = len(telemetry.Metrics())
	if len(v) > 0 {
		fmt.Fprintf(os.Stderr, "rx-churn: watchdog flagged %v\n", v)
		return 1
	}
	return 0
}

// verify has nothing left to check: every frame was checked as it was
// served, and the slot ledgers are checked by the caller.
func (w *rxChurn) verify([]int64) int64 { return 0 }

func (w *rxChurn) layers(m map[string]float64) {
	var frames, fast, batchFrames, calls uint64
	for _, rt := range w.ts {
		s, b := rt.demux.Stats(), rt.demux.BatchStats()
		frames += s.Frames
		fast += rt.eps[claimPortA].Matched + rt.eps[claimPortB].Matched
		batchFrames += b.Frames
		calls += b.Calls
	}
	m["netsim.fastpath_share"] = ratio(float64(fast), float64(frames))
	m["netsim.frames_per_crossing"] = ratio(float64(batchFrames), float64(calls))
	m["lifecycle.stage_ms"] = w.stage.mean(time.Millisecond)
	m["lifecycle.promote_us"] = w.promote.mean(time.Microsecond)
	m["lifecycle.rollback_us"] = w.rollback.mean(time.Microsecond)
	m["lifecycle.rejects"] = float64(w.rejects)
	m["telemetry.scrape_ms"] = w.scrape.mean(time.Millisecond)
	m["telemetry.series"] = float64(w.series)
	m["telemetry.registered"] = float64(w.registered)
	m["telemetry.watchdog_us"] = w.watchdog.mean(time.Microsecond)
}

// filterVersion is version v of the packet filter: textually distinct in
// every representation, semantically identical.
func filterVersion(v uint64) tech.Source {
	src := grafts.PacketFilter
	src.GEL += fmt.Sprintf("\n// deploy %d\n", v)
	src.Tcl += fmt.Sprintf("\n# deploy %d\n", v)
	src.Hipec = map[string]string{}
	for entry, asm := range grafts.PacketFilter.Hipec {
		src.Hipec[entry] = asm + fmt.Sprintf("\n; deploy %d\n", v)
	}
	return src
}

// invalidFilter returns the k-th invalid packet filter for class id: GEL
// classes alternate a parse error with a checker reject (a call to an
// undefined function); the domain class alternates bad HiPEC assembly
// with a program the HiPEC verifier rejects (control falls off the end).
// The compiled class has no source to break.
func invalidFilter(id tech.ID, k int) (tech.Source, bool) {
	src := grafts.PacketFilter
	switch id {
	case tech.Domain:
		asm := "\tbogus r0, r1\n"
		if k%2 == 1 {
			asm = "\tmovi r1, 0\n"
		}
		src.Hipec = map[string]string{"filter": asm, "filter_batch": asm}
	case tech.NativeSafe, tech.AOT, tech.Bytecode:
		if k%2 == 0 {
			src.GEL += "\nfunc broken( {\n"
		} else {
			src.GEL += "\nfunc stray() { return missing(1); }\n"
		}
	default:
		return src, false
	}
	return src, true
}
