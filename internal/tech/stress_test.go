package tech

import (
	"fmt"
	"sync"
	"testing"

	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

// stressSrc is a small dual program that exercises arithmetic, control
// flow, and memory traffic. Every location it reads it has already
// written in the same invocation, so its result is a pure function of
// its arguments — the property that lets pooled instances (whose linear
// memories deliberately carry state across checkouts) be checked
// against a single-threaded oracle.
var stressSrc = Source{
	Name: "stress-prog",
	GEL: `func main(a, b, c) {
	var i = 0;
	var acc = a;
	while (i < 8) {
		st32(4096 + i * 4, acc + b);
		acc = (acc + ld32(4096 + i * 4)) ^ c;
		i = i + 1;
	}
	return acc;
}`,
	Tcl: `proc main {a b c} {
	set i 0
	set acc $a
	while {$i < 8} {
		st32 [expr {4096 + $i * 4}] [expr {$acc + $b}]
		set acc [expr {($acc + [ld32 [expr {4096 + $i * 4}]]) ^ $c}]
		incr i
	}
	return $acc
}`,
}

// stressIDs is every registry technology a pool can carry an arbitrary
// dual program under (the Compiled*/Domain classes need hand-written
// implementations and are stressed through the conformance suite's
// pooled matrix instead).
var stressIDs = []ID{
	NativeUnsafe, NativeSafe, NativeSafeNil, SFI, SFIFull, Bytecode, Script,
}

func stressScale(t *testing.T) (workers, iters int) {
	if testing.Short() {
		return 4, 15
	}
	return 8, 60
}

// TestStressPoolInvoke hammers a checkout per call (Acquire, Invoke,
// release) from many goroutines and requires every result to match the
// single-threaded oracle.
func TestStressPoolInvoke(t *testing.T) {
	workers, iters := stressScale(t)
	args := []uint32{7, 9, 0x5a5a}
	for _, id := range stressIDs {
		id := id
		t.Run(string(id), func(t *testing.T) {
			g, err := Load(id, stressSrc, mem.New(memSize), Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := g.Invoke("main", args...)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := NewPool(id, stressSrc, Options{}, PoolConfig{MemSize: memSize})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						v, err := invokeOnce(pool, "main", args...)
						if err != nil {
							errs[w] = fmt.Errorf("iter %d: %v", i, err)
							return
						}
						if v != want {
							errs[w] = fmt.Errorf("iter %d: got %d, oracle %d", i, v, want)
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
		})
	}
}

// TestStressPoolCheckout is the per-worker-checkout form: each worker
// holds one instance for its whole loop and calls through the resolved
// direct path, the way bench and kernel hook points do.
func TestStressPoolCheckout(t *testing.T) {
	workers, iters := stressScale(t)
	args := []uint32{101, 13, 0x33}
	for _, id := range stressIDs {
		id := id
		t.Run(string(id), func(t *testing.T) {
			g, err := Load(id, stressSrc, mem.New(memSize), Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := g.Invoke("main", args...)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := NewPool(id, stressSrc, Options{}, PoolConfig{MemSize: memSize})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					g, release, err := pool.Acquire()
					if err != nil {
						errs[w] = err
						return
					}
					defer release()
					call := Resolve(g, "main")
					buf := append([]uint32(nil), args...)
					for i := 0; i < iters; i++ {
						v, _, err := call(telemetry.SpanCtx{}, buf)
						if err != nil {
							errs[w] = fmt.Errorf("iter %d: %v", i, err)
							return
						}
						if v != want {
							errs[w] = fmt.Errorf("iter %d: got %d, oracle %d", i, v, want)
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
		})
	}
}

// TestStressPoolTelemetry runs a pool with telemetry enabled: the
// deterministic held-checkout phase pins that batched counters flush
// (one wrapper, 600 calls, mask 255 => at least 512 counted), and the
// concurrent phase puts the per-instance-wrapper claim under the race
// detector — every pooled instance must own its batch state exclusively.
func TestStressPoolTelemetry(t *testing.T) {
	telemetry.SetEnabled(true)
	t.Cleanup(func() {
		telemetry.SetEnabled(false)
		telemetry.ResetMetrics()
	})
	pool, err := NewPool(NativeUnsafe, stressSrc, Options{}, PoolConfig{MemSize: memSize})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	g, release, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	const held = 600
	for i := 0; i < held; i++ {
		if _, err := g.Invoke("main", 1, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	release()
	met := telemetry.Register(stressSrc.Name, string(NativeUnsafe))
	if got := met.Invocations(); got < 512 || got > held {
		t.Fatalf("held checkout: %d invocations recorded, want 512..%d", got, held)
	}

	workers, iters := stressScale(t)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := invokeOnce(pool, "main", uint32(w), uint32(i), 5); err != nil {
					errs[w] = err
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
	if got, ceil := met.Invocations(), uint64(held+workers*iters); got > ceil {
		t.Fatalf("recorded %d invocations, more than the %d performed", got, ceil)
	}
}
