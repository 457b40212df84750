package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"graftlab/internal/telemetry"
)

// scenario is one workload: a request mix over a set of tenants, one tenant per
// technology class. A set-up builds fresh tenants on a stack; the
// benchmark then drives requests in a closed loop from one goroutine.
type scenario interface {
	// classes lists the class of each tenant, in tenant order.
	classes() []int
	// setup builds every tenant's kernel objects and memories on st and
	// activates their grafts. It is what setup_s times.
	setup(st *stack) error
	// prepare builds the oracles' reference state for the set-up; untimed.
	prepare()
	// pick draws the next request's tenant and inputs from the seed.
	pick() int
	// serve runs the drawn request on tenant t; the timed region.
	serve(t int) error
	// check verifies the served request's output.
	check(t int) bool
	// between runs control-plane work between requests and returns the
	// number of control-plane operations that went wrong.
	between(elapsed, total time.Duration) int64
	// finished reports whether the run may end; pastDeadline is set once
	// the measured time is up.
	finished(pastDeadline bool) bool
	// verify checks end-of-run state and returns the number of wrong
	// requests; served counts measured requests per tenant.
	verify(served []int64) int64
	// layers adds the workload's own per-layer counters.
	layers(m map[string]float64)
}

func newScenario(name string, seed uint64, corrupt bool) (scenario, error) {
	switch name {
	case "fault-path":
		return newFaultPath(seed, corrupt)
	case "write-path":
		return newWritePath(seed, corrupt)
	case "rx-churn":
		return newRxChurn(seed, corrupt)
	}
	return nil, fmt.Errorf("unknown workload %q (want fault-path, write-path or rx-churn)", name)
}

// Rates and medians come from slices of the measured run. Co-tenants on a
// shared host slow the benchmark by up to ~40% in phases of a fraction of
// a second to tens of seconds, and a phase slows every request in the
// slices it covers. The run splits its measured time into numSlices equal
// slices and computes req_per_s and the per-class medians over the slices
// that served the most requests: the busiest tenth, widened until it
// holds minKept requests. Those least-disturbed slices are what repeats
// from run to run; a change that makes every request faster or slower
// moves every slice, so it moves these metrics all the same. The p99 is
// taken over the whole run instead: picking slices by their request count
// also picks which tail events they hold, and the whole-run tail is the
// steadier figure.
const (
	numSlices = 40
	minKept   = 1000
)

// slice holds the requests that completed in one slice of the run.
type slice struct {
	requests int64
	perClass [numClasses]*reservoir
}

// phase is one measured stretch of requests.
type phase struct {
	requests, failed int64
	served           []int64
	wall             time.Duration
	allocBytes       uint64
	numGC            uint32
	pauseNs          uint64
	heapBytes        uint64

	all *reservoir // every measured request's latency, ns

	// Over the kept slices: request rate, per-class median latency in ns.
	keptRate float64
	sliceReq []int64 // requests per slice, in time order
	p99      float64 // over the whole run
	p50      [numClasses]float64
	hasClass [numClasses]bool
}

func (p *phase) reqPerSec() float64 { return ratio(float64(p.requests), p.wall.Seconds()) }

// summarize computes the timing metrics over the busiest slices, each
// slice lasting width.
func (p *phase) summarize(slices []slice, width time.Duration) {
	order := make([]int, len(slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return slices[order[i]].requests > slices[order[j]].requests })
	var n int64
	nkept := 0
	for nkept < len(order) && (nkept < len(order)/10 || n < minKept) {
		n += slices[order[nkept]].requests
		nkept++
	}
	for _, s := range slices {
		p.sliceReq = append(p.sliceReq, s.requests)
	}
	var per [numClasses][]int64
	for _, k := range order[:nkept] {
		for c, r := range slices[k].perClass {
			if r != nil {
				per[c] = append(per[c], r.vals...)
			}
		}
	}
	p.keptRate = ratio(float64(n), (time.Duration(nkept) * width).Seconds())
	for c := range per {
		if slices[0].perClass[c] != nil {
			p.hasClass[c] = true
			p.p50[c] = quantile(per[c], 0.5)
		}
	}
}

// serveOne runs one request, inside a request span when rec is set.
func serveOne(w scenario, rec *recorder, t, c int) error {
	if rec == nil {
		return w.serve(t)
	}
	rec.beginRequest(c)
	err := w.serve(t)
	if terr := rec.endRequest(); terr != nil {
		return terr
	}
	return err
}

// measure warms the set-up, then runs requests for d (and until the
// workload is finished) and checks every output.
func measure(w scenario, rec *recorder, d time.Duration, seed uint64) (*phase, error) {
	classes := w.classes()
	p := &phase{served: make([]int64, len(classes)), all: newReservoir(1<<17, seed)}
	slices := make([]slice, numSlices)
	for i := range slices {
		s := &slices[i]
		for _, c := range classes {
			if s.perClass[c] == nil {
				s.perClass[c] = newReservoir(1<<12, seed+uint64(i)*131+uint64(c)+1)
			}
		}
	}

	warm := d / 5
	if warm > time.Second {
		warm = time.Second
	}
	// Warm-up outcomes are not counted; whatever goes wrong here goes
	// wrong again, counted, in the measured loop.
	for end := time.Now().Add(warm); time.Now().Before(end); {
		t := w.pick()
		_ = serveOne(w, rec, t, classes[t])
		w.check(t)
	}
	if rec != nil {
		rec.reset()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(d)
	for {
		t := w.pick()
		c := classes[t]
		t0 := time.Now()
		err := serveOne(w, rec, t, c)
		t1 := time.Now()
		p.requests++
		p.served[t]++
		if err != nil || !w.check(t) {
			p.failed++
		}
		lat := int64(t1.Sub(t0))
		p.all.add(lat)
		if el := t1.Sub(start); el < d {
			s := &slices[int(el*numSlices/d)]
			s.requests++
			s.perClass[c].add(lat)
		}
		p.failed += w.between(t1.Sub(start), d)
		if w.finished(t1.After(deadline)) {
			break
		}
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.numGC = m1.NumGC - m0.NumGC
	p.pauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	p.summarize(slices, d/numSlices)
	p.p99 = quantile(p.all.vals, 0.99)
	slices, p.all = nil, nil
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heapBytes = m1.HeapAlloc
	p.failed += w.verify(p.served)
	return p, nil
}

// unbalanced counts slots whose ledger breaks Issued == Committed + Aborted.
func unbalanced(st *stack) int64 {
	var n int64
	for _, s := range st.reg.Slots() {
		a := s.Accounting()
		if a.Issued != a.Committed+a.Aborted {
			n++
		}
	}
	return n
}

// freshStack discards any previous set-up's telemetry and garbage and
// returns an empty stack. Freed memory goes back to the OS, so every
// set-up starts from the same state: its memories are fresh pages.
func freshStack(rec *recorder) *stack {
	debug.FreeOSMemory()
	telemetry.ResetMetrics()
	return newStack(rec)
}

// Set-ups are timed in two windows, before and after the measured run, so
// one disturbed stretch of the host cannot set setup_s alone; setup_s is
// the median over all of them.
const (
	setupsBefore = 11 // the last of these is the set-up the run measures
	setupsAfter  = 10
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	corrupt  bool // corrupt one expected verdict (self-test only)
	spansOut string
	commit   string
}

// report is one invocation's result.
type report struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	details           map[string]any
}

func run(cfg config) (*report, error) {
	telemetry.SetEnabled(true)
	w, err := newScenario(cfg.workload, cfg.seed, cfg.corrupt)
	if err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return runTraced(cfg, w, d)
	}

	var setupSecs []float64
	timedSetup := func() (*stack, error) {
		st := freshStack(nil)
		// Collection is held off while a set-up is timed, so the figures
		// measure the set-up's own work rather than whichever collection
		// its allocations happened to start.
		gc := debug.SetGCPercent(-1)
		t0 := time.Now()
		err := w.setup(st)
		dt := time.Since(t0)
		debug.SetGCPercent(gc)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, dt.Seconds())
		return st, nil
	}
	var st *stack
	for i := 0; i < setupsBefore; i++ {
		if st != nil {
			st.close()
		}
		if st, err = timedSetup(); err != nil {
			return nil, err
		}
	}
	w.prepare()
	p, err := measure(w, nil, d, cfg.seed)
	if err == nil {
		p.failed += unbalanced(st)
	}
	st.close()
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupsAfter; i++ {
		if st, err = timedSetup(); err != nil {
			return nil, err
		}
		st.close()
	}

	m := map[string]float64{
		"req_per_s":       p.keptRate,
		"lat_p99_us":      p.p99 / 1e3,
		"setup_s":         quantileF(setupSecs, 0.5),
		"alloc_b_per_req": ratio(float64(p.allocBytes), float64(p.requests)),
		"heap_mb":         float64(p.heapBytes) / 1e6,
	}
	p50 := map[string]float64{}
	for c := range allClasses {
		if !p.hasClass[c] {
			continue
		}
		name := allClasses[c].name
		p50[name] = p.p50[c] / 1e3
		if isEndToEnd("p50_us." + name) {
			m["p50_us."+name] = p.p50[c] / 1e3
		}
	}
	return &report{
		correct:   p.failed == 0,
		attempted: p.requests,
		failed:    p.failed,
		metrics:   m,
		details: map[string]any{
			"p50_us_by_class":     p50,
			"requests_by_tenant":  tenantCounts(w, p.served),
			"req_per_s_whole_run": p.reqPerSec(),
			"requests_per_slice":  p.sliceReq,
			"setup_s_each":        setupSecs,
		},
	}, nil
}

// runTraced measures an untraced phase and then a traced phase of d/2
// each, on fresh set-ups, and reports the per-layer metrics.
func runTraced(cfg config, w scenario, d time.Duration) (*report, error) {
	half := d / 2

	st := freshStack(nil)
	if err := w.setup(st); err != nil {
		st.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	w.prepare()
	plain, err := measure(w, nil, half, cfg.seed)
	if err == nil {
		plain.failed += unbalanced(st)
	}
	st.close()
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	st = freshStack(rec)
	defer st.close()
	if err := w.setup(st); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	w.prepare()
	traced, err := measure(w, rec, half, cfg.seed)
	if err != nil {
		return nil, err
	}
	traced.failed += unbalanced(st)
	if cfg.spansOut != "" {
		if err := rec.writeSpans(cfg.spansOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.name] = 0
	}
	reqs := float64(rec.requests)
	for l := layerHotlist; l < layerGraft; l++ {
		m[layerNames[l]+".self_ns"] = ratio(float64(rec.self[l]), reqs)
	}
	for c := range allClasses {
		name := allClasses[c].name
		m["tech.graft.self_ns."+name] = ratio(float64(rec.graftSelf[c]), float64(rec.classReqs[c]))
		m["tech.graft.calls_per_req."+name] = ratio(float64(rec.graftCalls[c]), float64(rec.classReqs[c]))
		m["tech.load_ms."+name] = st.loads[c].mean(time.Millisecond)
	}
	m["upcall.crossing_ns"] = ratio(float64(rec.self[layerUpcall]), float64(rec.crossings))
	var retried, committed float64
	for _, s := range st.reg.Slots() {
		a := s.Accounting()
		retried += float64(a.Retried)
		committed += float64(a.Committed)
	}
	m["lifecycle.slot.retry_ratio"] = ratio(retried, committed)
	kreq := float64(plain.requests) / 1e3
	m["runtime.gc_per_kreq"] = ratio(float64(plain.numGC), kreq)
	m["runtime.gc_pause_us_per_kreq"] = ratio(float64(plain.pauseNs)/1e3, kreq)
	m["trace.overhead"] = ratio(plain.keptRate, traced.keptRate)
	m["trace.unattributed_share"] = ratio(float64(rec.self[layerRequest]), float64(rec.reqNanos))
	m["trace.request_ns"] = ratio(float64(rec.reqNanos), reqs)
	w.layers(m)

	failed := plain.failed + traced.failed
	return &report{
		correct:   failed == 0,
		attempted: plain.requests + traced.requests,
		failed:    failed,
		metrics:   m,
		details: map[string]any{
			"untraced_requests":  plain.requests,
			"traced_requests":    traced.requests,
			"requests_by_tenant": tenantCounts(w, traced.served),
		},
	}, nil
}

// tenantCounts maps each tenant's class name to its request count.
func tenantCounts(w scenario, served []int64) map[string]int64 {
	out := map[string]int64{}
	for t, c := range w.classes() {
		out[allClasses[c].name] = served[t]
	}
	return out
}
