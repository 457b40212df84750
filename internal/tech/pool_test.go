package tech

import (
	"runtime"
	"sync"
	"testing"

	"graftlab/internal/mem"
)

// poolTrapSrc pairs a pure entry with one that traps mid-invocation
// (division by an argument of zero traps identically on every engine).
var poolTrapSrc = Source{
	Name: "pool-trap",
	GEL: `func ok(a, b) {
	return a * 31 + b;
}
func boom(a) {
	var x = 100 / a;
	return x;
}`,
	Tcl: `proc ok {a b} {
	return [expr {$a * 31 + $b}]
}
proc boom {a} {
	return [expr {100 / $a}]
}`,
}

// TestPoolTrapLeavesInstanceClean pins the recovery contract: a trap
// does not poison a pooled instance. Engines reset their invocation
// state on entry, so the very same instance must keep servicing good
// invocations after arbitrarily many traps.
func TestPoolTrapLeavesInstanceClean(t *testing.T) {
	for _, id := range stressIDs {
		id := id
		t.Run(string(id), func(t *testing.T) {
			pool, err := NewPool(id, poolTrapSrc, Options{}, PoolConfig{MemSize: memSize})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			g, release, err := pool.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			for i := uint32(0); i < 10; i++ {
				if _, err := g.Invoke("boom", 0); err == nil {
					t.Fatalf("round %d: division by zero did not trap", i)
				}
				v, err := g.Invoke("ok", i, 7)
				if err != nil {
					t.Fatalf("round %d: instance poisoned after trap: %v", i, err)
				}
				if want := i*31 + 7; v != want {
					t.Fatalf("round %d: got %d, want %d", i, v, want)
				}
			}
		})
	}
}

// TestPoolConcurrentTrapMix drives traps and successes concurrently
// through the pool — the recovery contract under contention, with the
// race detector watching.
func TestPoolConcurrentTrapMix(t *testing.T) {
	workers, iters := stressScale(t)
	pool, err := NewPool(Bytecode, poolTrapSrc, Options{}, PoolConfig{MemSize: memSize})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i%3 == 0 {
					if _, err := invokeOnce(pool, "boom", 0); err == nil {
						errs[w] = errMissingTrap
						return
					}
					continue
				}
				v, err := invokeOnce(pool, "ok", uint32(i), 1)
				if err != nil {
					errs[w] = err
					return
				}
				if v != uint32(i)*31+1 {
					errs[w] = errWrongValue
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// invokeOnce is the checkout-per-call pattern: acquire an engine,
// invoke entry on it, and release it.
func invokeOnce(p *Pool, entry string, args ...uint32) (uint32, error) {
	g, release, err := p.Acquire()
	if err != nil {
		return 0, err
	}
	defer release()
	return g.Invoke(entry, args...)
}

var (
	errMissingTrap = poolTestError("expected trap did not occur")
	errWrongValue  = poolTestError("wrong value from pooled invocation")
)

type poolTestError string

func (e poolTestError) Error() string { return string(e) }

// TestPoolGOMAXPROCS1 pins that the pool needs no parallelism to be
// correct: with a single P, goroutines interleave by preemption only,
// and every invocation must still match.
func TestPoolGOMAXPROCS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pool, err := NewPool(NativeSafe, stressSrc, Options{}, PoolConfig{MemSize: memSize})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	g, err := Load(NativeSafe, stressSrc, mem.New(memSize), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Invoke("main", 3, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v, err := invokeOnce(pool, "main", 3, 5, 7)
				if err != nil {
					errs[w] = err
					return
				}
				if v != want {
					errs[w] = errWrongValue
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// poolScriptSrc exercises interpreter-level state: g is a Tcl global,
// which persists across invocations WITHIN one instance (it is the
// script engine's analogue of extension state) but must never be
// visible from another pooled instance.
var poolScriptSrc = Source{
	Name: "pool-globals",
	Tcl: `proc setg {v} {
	global g
	set g $v
	return 0
}
proc getg {} {
	global g
	return $g
}`,
}

// TestPoolScriptVariableIsolation pins that pooled script interpreters
// do not leak variables into each other: each instance owns a private
// interpreter, so a global set through one checkout is invisible to
// another instance.
func TestPoolScriptVariableIsolation(t *testing.T) {
	pool, err := NewPool(Script, poolScriptSrc, Options{}, PoolConfig{MemSize: memSize})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	a, releaseA, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, releaseB, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("pool handed out the same instance twice")
	}
	if _, err := a.Invoke("setg", 42); err != nil {
		t.Fatal(err)
	}
	v, err := a.Invoke("getg")
	if err != nil || v != 42 {
		t.Fatalf("instance A lost its own global: v=%d err=%v", v, err)
	}
	if _, err := b.Invoke("getg"); err == nil {
		t.Fatal("global leaked between pooled script interpreters")
	}
	releaseA()
	releaseB()
}

// TestPoolWrapLifecycle pins the Wrap hook: every instance is wrapped
// exactly once, and Close closes every wrapper ever created — including
// instances sync.Pool may long since have dropped.
func TestPoolWrapLifecycle(t *testing.T) {
	var mu sync.Mutex
	wrapped, closed := 0, 0
	cfg := PoolConfig{
		MemSize: memSize,
		Wrap: func(g Graft) (Graft, func()) {
			mu.Lock()
			wrapped++
			mu.Unlock()
			return g, func() { mu.Lock(); closed++; mu.Unlock() }
		},
	}
	pool, err := NewPool(NativeSafe, stressSrc, Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, releaseA, _ := pool.Acquire()
	_, releaseB, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	releaseA()
	releaseB()
	created := pool.Created()
	pool.Close()
	mu.Lock()
	defer mu.Unlock()
	if wrapped != created {
		t.Fatalf("wrapped %d instances, created %d", wrapped, created)
	}
	if closed != created {
		t.Fatalf("Close closed %d of %d wrappers", closed, created)
	}
	if _, _, err := pool.Acquire(); err == nil {
		t.Fatal("Acquire after Close succeeded")
	}
	pool.Close() // idempotent
}

// TestPoolValidation pins eager validation: a bad program or a missing
// memory size fails at NewPool, not at first Acquire.
func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(NativeSafe, stressSrc, Options{}, PoolConfig{}); err == nil {
		t.Fatal("pool without MemSize accepted")
	}
	bad := Source{Name: "bad", GEL: "func main( {"}
	if _, err := NewPool(NativeSafe, bad, Options{}, PoolConfig{MemSize: memSize}); err == nil {
		t.Fatal("unparseable program accepted")
	}
	if _, err := NewPool(Bytecode, bad, Options{}, PoolConfig{MemSize: memSize}); err == nil {
		t.Fatal("unparseable program accepted by bytecode pool")
	}
	failing := PoolConfig{
		MemSize: memSize,
		Setup:   func(m *mem.Memory) error { return poolTestError("setup failed") },
	}
	if _, err := NewPool(NativeSafe, stressSrc, Options{}, failing); err == nil {
		t.Fatal("failing Setup accepted")
	}
}
