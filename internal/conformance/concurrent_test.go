package conformance

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/upcall"
)

// TestConcurrentPooledConformance extends the oracle to the multicore
// layer: every engine that can carry an arbitrary program is driven
// through a tech.Pool from many goroutines at once, and every pooled
// invocation must report exactly what the single-threaded oracle
// reports — same value, or same trap kind/addr/code.
//
// Only invocation-deterministic corpus programs qualify: pooled
// instances keep their linear memory across checkouts (like a real
// extension's state), so a program that reads a location before writing
// it could legitimately see a previous invocation's stores. arith is
// pure, memsweep writes every location before reading it, and div-zero
// traps before touching memory — each invocation's outcome is
// independent of what the instance ran before.
func TestConcurrentPooledConformance(t *testing.T) {
	workers, iters := 8, 40
	if testing.Short() {
		workers, iters = 4, 10
	}
	deterministic := map[string]bool{"arith": true, "memsweep": true, "div-zero": true}
	for _, p := range corpus {
		if !deterministic[p.name] {
			continue
		}
		p := p
		for _, e := range engineMatrix {
			e := e
			t.Run(p.name+"/"+e.name, func(t *testing.T) {
				want := runEngine(t, e, p.src, "main", p.args, oracleFuel, nil)
				cfg := tech.PoolConfig{MemSize: progMemSize}
				if e.wrap {
					cfg.Wrap = upcall.PoolWrapper(0)
				}
				pool, err := tech.NewPool(e.id, p.src, tech.Options{Fuel: oracleFuel, VM: e.vmMode}, cfg)
				if err != nil {
					t.Fatalf("pool: %v", err)
				}
				defer pool.Close()

				var wg sync.WaitGroup
				errs := make([]error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							v, err := invokePooled(pool, p.args)
							if err := agreeWithOracle(want, v, err); err != nil {
								errs[w] = fmt.Errorf("worker %d iter %d: %w", w, i, err)
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
				// No instance-count assertion: sync.Pool may drop idle
				// instances at any GC, so Created() has no hard bound.
				if pool.Created() < 1 {
					t.Fatal("pool reports zero instances created")
				}
			})
		}
	}
}

// invokePooled checks an engine out of pool for one call to main.
func invokePooled(pool *tech.Pool, args []uint32) (uint32, error) {
	g, release, err := pool.Acquire()
	if err != nil {
		return 0, err
	}
	defer release()
	return g.Invoke("main", args...)
}

// agreeWithOracle compares one pooled invocation's result against the
// single-threaded outcome.
func agreeWithOracle(want outcome, v uint32, err error) error {
	if (want.err != nil) != (err != nil) {
		return fmt.Errorf("err=%v, oracle err=%v", err, want.err)
	}
	if want.trap != nil {
		var trap *mem.Trap
		if !errors.As(err, &trap) {
			return fmt.Errorf("err=%v, oracle trapped %v", err, want.trap.Kind)
		}
		if trap.Kind != want.trap.Kind || trap.Addr != want.trap.Addr || trap.Code != want.trap.Code {
			return fmt.Errorf("trap {%v addr=%#x code=%d}, oracle {%v addr=%#x code=%d}",
				trap.Kind, trap.Addr, trap.Code, want.trap.Kind, want.trap.Addr, want.trap.Code)
		}
		return nil
	}
	if err == nil && v != want.val {
		return fmt.Errorf("value %d, oracle %d", v, want.val)
	}
	return nil
}
