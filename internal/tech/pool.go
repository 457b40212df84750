package tech

import (
	"fmt"
	"sync"
	"sync/atomic"

	"graftlab/internal/bytecode"
	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

// Pool hands out reusable graft instances so one loaded extension can be
// invoked from many goroutines at once. Every engine in the registry
// keeps per-invocation state (VM frames, the translator's register
// arena, the script interpreter's variable stack), so a single Graft is
// safe for one goroutine at a time; the pool is the concurrency layer on
// top: each instance owns a private linear memory and a private engine,
// and the load-time artifact that IS immutable — the verified bytecode
// module every GEL class runs — is built once and shared by every
// instance. This mirrors how production extension runtimes go multicore:
// eBPF runs the same verified program on every CPU with per-CPU maps for
// the mutable state; here the per-CPU state is the instance.
//
// Acquire is the one checkout path. Idle instances sit in a sync.Pool,
// so they are dropped under memory pressure and re-created on demand;
// Close tears down every instance ever created (required for the
// wrapped/domain-per-worker mode, whose instances own goroutines).
type Pool struct {
	id   ID
	src  Source
	opts Options
	cfg  PoolConfig

	// mod is the shared immutable load-time artifact of the
	// bytecode-lowered classes (see newInstance).
	mod *bytecode.Module

	instrument bool // wrap instances in the metrics shim; fixed at construction

	free sync.Pool

	// closed is atomic so Acquire's fast path (a free-list hit) can
	// refuse checkouts after Close without taking mu.
	closed atomic.Bool

	mu      sync.Mutex
	all     []*instance // every instance ever created, for Close
	created int
}

// PoolConfig sizes and initializes the per-instance state.
type PoolConfig struct {
	// MemSize is the byte size of each instance's linear memory
	// (power of two, >= 8).
	MemSize uint32
	// Setup, if non-nil, initializes a freshly allocated instance memory
	// (hot lists, constant tables, map regions) before the engine loads.
	// It runs once per instance, from whichever goroutine first needed
	// the instance; it must only touch the memory it is given.
	Setup func(m *mem.Memory) error
	// Wrap, if non-nil, wraps each instance's engine after loading —
	// the domain-per-worker mode: upcall.PoolWrapper gives every pooled
	// instance its own user-level server so concurrent workers never
	// serialize on one protection-domain channel. The returned closer
	// (may be nil) is called by Pool.Close.
	Wrap func(g Graft) (Graft, func())
}

// instance is one pooled graft: a private engine over a private linear
// memory. A trap does not poison an instance: every engine resets its
// invocation state on entry, so a trapped instance is reusable as-is
// (the linear memory keeps whatever the faulting invocation wrote,
// exactly like a real extension's state).
type instance struct {
	g       Graft // bound to the instance's private memory
	close   func()
	release func() // returns this instance to the free list, bound once so Acquire allocates nothing
}

// NewPool validates the source under the technology by building one
// instance eagerly (so a bad program fails at pool construction, not at
// the first Acquire) and returns the pool. Like Load, the telemetry
// decision is made once here: instances created while telemetry is
// enabled are instrumented, each with its own single-writer batch
// counter flushing into the shared per-(graft,technology) accumulator.
// Artifact.NewPool builds the pool of bare engines a lifecycle
// deployment uses.
func NewPool(id ID, src Source, opts Options, cfg PoolConfig) (*Pool, error) {
	return newPool(id, src, opts, cfg, telemetry.Enabled())
}

func newPool(id ID, src Source, opts Options, cfg PoolConfig, instrument bool) (*Pool, error) {
	if cfg.MemSize == 0 {
		return nil, fmt.Errorf("tech: pool for %q needs a MemSize", src.Name)
	}
	p := &Pool{id: id, src: src, opts: opts, cfg: cfg, instrument: instrument}

	// Build the shared module once. The engine constructors only read
	// it, so concurrent instance creation is safe.
	switch id {
	case NativeUnsafe, NativeSafe, NativeSafeNil, SFI, SFIFull, Bytecode, AOT:
		mod, err := compileGEL(id, src.GEL)
		if err != nil {
			return nil, err
		}
		if id == Bytecode {
			if _, err := ParseVMMode(string(opts.VM)); err != nil {
				return nil, err
			}
		}
		p.mod = mod
	}

	first, err := p.newInstance()
	if err != nil {
		return nil, err
	}
	p.free.Put(first)
	return p, nil
}

// newInstance builds one fresh instance from the shared artifacts.
func (p *Pool) newInstance() (*instance, error) {
	m := mem.New(p.cfg.MemSize)
	if p.cfg.Setup != nil {
		if err := p.cfg.Setup(m); err != nil {
			return nil, fmt.Errorf("tech: pool setup for %q: %w", p.src.Name, err)
		}
	}
	g, err := p.loadEngine(m)
	if err != nil {
		return nil, err
	}
	attachProfile(g, p.src.Name, p.id)
	it := &instance{}
	it.release = func() { p.free.Put(it) }
	if p.cfg.Wrap != nil {
		g, it.close = p.cfg.Wrap(g)
	}
	if p.instrument {
		g = instrument(g, p.src.Name, p.id)
	}
	it.g = g

	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		if it.close != nil {
			it.close()
		}
		return nil, fmt.Errorf("tech: pool for %q is closed", p.src.Name)
	}
	p.all = append(p.all, it)
	p.created++
	p.mu.Unlock()
	return it, nil
}

// loadEngine binds a private engine to m, reusing the shared compiled
// module where the class has one. The Compiled*, Script, and Domain
// classes have per-instance load costs by nature (a constructor call, a
// source re-parse, a 20-instruction assembly), while the
// bytecode-lowered classes share their expensive front-end work.
func (p *Pool) loadEngine(m *mem.Memory) (Graft, error) {
	if p.mod == nil {
		return load(p.id, p.src, m, p.opts)
	}
	cfg, err := Config(p.id)
	if err != nil {
		return nil, err
	}
	return newModuleEngine(p.id, p.mod, m, cfg, p.opts)
}

// Acquire checks out an instance and returns its engine with the
// release that puts the instance back, bound once per instance so a
// checkout allocates nothing: a Pool is a lifecycle carrier. The engine
// is for one goroutine at a time and must not be used after release.
// Its memory is NOT cleared between checkouts: like a real extension's
// state, it carries over to the next one, so callers that need a
// pristine memory per checkout reinitialize it themselves. After Close,
// Acquire fails even when the free list still holds instances.
func (p *Pool) Acquire() (Graft, func(), error) {
	if p.closed.Load() {
		return nil, nil, fmt.Errorf("tech: pool for %q is closed", p.src.Name)
	}
	it, ok := p.free.Get().(*instance)
	if !ok {
		var err error
		if it, err = p.newInstance(); err != nil {
			return nil, nil, err
		}
	}
	return it.g, it.release, nil
}

// Created reports how many instances the pool has ever built (a
// steady-state concurrent workload should see this plateau near its
// worker count).
func (p *Pool) Created() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}

// Close tears down every instance the pool ever created — in the
// wrapped (domain-per-worker) mode each instance owns a server
// goroutine, and sync.Pool alone would leak any it drops. Acquire after
// Close fails; engines already checked out remain usable until
// released, but their wrappers are closed, so domain-backed invocations
// will return errors.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return
	}
	p.closed.Store(true)
	all := p.all
	p.all = nil
	p.mu.Unlock()
	for _, it := range all {
		if it.close != nil {
			it.close()
		}
	}
}
