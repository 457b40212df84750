package main

import (
	"time"

	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/upcall"
)

// class is one technology class a workload hosts a tenant for.
type class struct {
	name   string // metric suffix, as in p50_us.<name>
	id     tech.ID
	upcall bool // the engine runs behind upcall.NewDomain(g, 0)
}

// allClasses lists every class in metric order. The script class is left
// out: at ~10⁴× the cost of C, any share of it would be over 99% of a mix.
var allClasses = []class{
	{name: "c", id: tech.CompiledUnsafe},
	{name: "codegen", id: tech.NativeSafe},
	{name: "aot", id: tech.AOT},
	{name: "bytecode", id: tech.Bytecode},
	{name: "domain", id: tech.Domain},
	{name: "upcall", id: tech.CompiledUnsafe, upcall: true},
}

// Class indices into allClasses.
const (
	classC = iota
	classCodegen
	classAOT
	classBytecode
	classDomain
	classUpcall
	numClasses
)

// durSum accumulates timings for a mean.
type durSum struct {
	n     int64
	total time.Duration
}

func (d *durSum) add(x time.Duration) { d.n++; d.total += x }

// mean returns the mean in unit-sized steps (0 when nothing was added).
func (d durSum) mean(unit time.Duration) float64 {
	if d.n == 0 {
		return 0
	}
	return float64(d.total) / float64(d.n) / float64(unit)
}

// stack is one set-up of the deployed graft stack: the lifecycle
// registry every tenant's slots live in, plus what outlives a slot. Slots
// never close retired carriers, so the stack owns the upcall servers and
// closes them when the set-up is discarded.
type stack struct {
	rec     *recorder // nil in untraced runs
	reg     *lifecycle.Registry
	domains []*upcall.Domain
	loads   [numClasses]durSum // tech.Load time per class, successful loads only
}

func newStack(rec *recorder) *stack {
	return &stack{rec: rec, reg: lifecycle.NewRegistry()}
}

// close stops every upcall server the set-up started.
func (s *stack) close() {
	for _, d := range s.domains {
		d.Close()
	}
	s.domains = nil
}

// slotGraft is the hook-side adapter: kernel hooks take a tech.Graft,
// which a slot is not. Invoke routes through the slot's live set; Memory
// is the tenant memory every version of the slot is loaded onto.
type slotGraft struct {
	slot *lifecycle.Slot
	m    *mem.Memory
}

func (g *slotGraft) Invoke(entry string, args ...uint32) (uint32, error) {
	r, err := g.slot.Invoke(entry, args...)
	return r.Value, err
}

func (g *slotGraft) Memory() *mem.Memory { return g.m }

// host builds the slot name for class c over memory m, activates version
// 1 of src in it, and returns the slot with the graft a kernel hook calls.
func (s *stack) host(name string, c int, src tech.Source, m *mem.Memory) (*lifecycle.Slot, tech.Graft, error) {
	slot := s.reg.NewSlot(name, allClasses[c].id, s.loader(c, m))
	if err := slot.Activate(tech.NewArtifact(src, 1), nil); err != nil {
		return nil, nil, err
	}
	var g tech.Graft = &slotGraft{slot: slot, m: m}
	if s.rec != nil {
		g = s.rec.graft(g, layerSlot, -1)
	}
	return slot, g, nil
}

// loader is the slots' LoadFunc: every version loads onto the tenant's
// memory m under the class's technology, with no engine cache. In the
// traced run the engine, the upcall crossing and the carrier are wrapped
// in span recorders.
func (s *stack) loader(c int, m *mem.Memory) lifecycle.LoadFunc {
	cl := allClasses[c]
	return func(a tech.Artifact) (lifecycle.Carrier, error) {
		t0 := time.Now()
		g, err := a.Load(cl.id, m, tech.Options{})
		if err != nil {
			return nil, err
		}
		s.loads[c].add(time.Since(t0))
		if s.rec != nil {
			g = s.rec.graft(g, layerGraft, c)
		}
		if cl.upcall {
			d := upcall.NewDomain(g, 0)
			s.domains = append(s.domains, d)
			g = d
			if s.rec != nil {
				g = s.rec.graft(d, layerUpcall, c)
			}
		}
		car := lifecycle.Single(g)
		if s.rec != nil {
			car = s.rec.carrier(car)
		}
		return car, nil
	}
}
