package upcall

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// TestMain lets this test binary double as the signal-measurement child.
func TestMain(m *testing.M) {
	SignalChildMain()
	os.Exit(m.Run())
}

func loadNoop(t *testing.T) tech.Graft {
	t.Helper()
	g, err := tech.Load(tech.NativeUnsafe, tech.Source{
		Name: "incr", GEL: `func main(a) { return a + 1; }`,
	}, mem.New(4096), tech.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDomainInvoke(t *testing.T) {
	d := NewDomain(loadNoop(t), 0)
	defer d.Close()
	for i := uint32(0); i < 100; i++ {
		v, err := d.Invoke("main", i)
		if err != nil || v != i+1 {
			t.Fatalf("Invoke(%d) = %d, %v", i, v, err)
		}
	}
}

func TestDomainErrorsPropagate(t *testing.T) {
	d := NewDomain(loadNoop(t), 0)
	defer d.Close()
	if _, err := d.Invoke("nope"); err == nil {
		t.Fatal("expected error for missing entry")
	}
	// Domain must still work after an error.
	if v, err := d.Invoke("main", 1); err != nil || v != 2 {
		t.Fatalf("post-error Invoke = %d, %v", v, err)
	}
}

func TestDomainClose(t *testing.T) {
	d := NewDomain(loadNoop(t), 0)
	d.Close()
	d.Close() // idempotent
	if _, err := d.Invoke("main", 1); err == nil {
		t.Fatal("Invoke after Close should fail")
	}
}

func TestDomainSyntheticLatency(t *testing.T) {
	lat := 200 * time.Microsecond
	d := NewDomain(loadNoop(t), lat)
	defer d.Close()
	if d.Latency() != lat {
		t.Fatalf("Latency = %v", d.Latency())
	}
	const n = 50
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := d.Invoke("main", 1); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(t0)
	if elapsed < n*lat {
		t.Errorf("%d calls with %v latency took only %v", n, lat, elapsed)
	}
}

// TestDomainTrapEquivalence is the boundary's core safety contract: a
// graft that traps in-kernel must surface the *same* *mem.Trap —
// kind, address, and code — when every invocation instead crosses the
// upcall boundary. The wrapper transports the trap; it must not wrap,
// rewrite, or swallow it.
func TestDomainTrapEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		gel   string
		entry string
		args  []uint32
	}{
		{name: "oob-store", entry: "main", args: []uint32{0x20000, 7},
			gel: `func main(a, b) { st32(a, b); return 0; }`},
		{name: "oob-load", entry: "main", args: []uint32{0x40000000},
			gel: `func main(a) { return ld32(a); }`},
		{name: "div-zero", entry: "main", args: []uint32{10, 0},
			gel: `func main(a, b) { return a / b; }`},
		{name: "abort", entry: "main", args: []uint32{9},
			gel: `func main(a) { abort(a); return 0; }`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			src := tech.Source{Name: c.name, GEL: c.gel}
			direct, err := tech.Load(tech.NativeSafe, src, mem.New(1<<16), tech.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, directErr := direct.Invoke(c.entry, c.args...)

			inner, err := tech.Load(tech.NativeSafe, src, mem.New(1<<16), tech.Options{})
			if err != nil {
				t.Fatal(err)
			}
			d := NewDomain(inner, 0)
			defer d.Close()
			_, wrappedErr := d.Invoke(c.entry, c.args...)

			dt, ok := directErr.(*mem.Trap)
			if !ok {
				t.Fatalf("direct run did not trap: %v", directErr)
			}
			wt, ok := wrappedErr.(*mem.Trap)
			if !ok {
				t.Fatalf("upcall run did not surface a *mem.Trap: %v", wrappedErr)
			}
			if dt.Kind != wt.Kind || dt.Addr != wt.Addr || dt.Code != wt.Code {
				t.Fatalf("trap diverges across the boundary: direct {%v addr=%#x code=%d}, upcall {%v addr=%#x code=%d}",
					dt.Kind, dt.Addr, dt.Code, wt.Kind, wt.Addr, wt.Code)
			}
			// The boundary must stay usable after transporting a trap.
			if _, err := d.Invoke(c.entry, c.args...); err == nil {
				t.Fatal("second invocation unexpectedly succeeded")
			}
		})
	}
}

// TestFailDelivery covers the injected transport failure: the error is
// ErrDelivery — not a trap, the graft never ran — and disarming
// restores normal service.
func TestFailDelivery(t *testing.T) {
	d := NewDomain(loadNoop(t), 0)
	defer d.Close()
	d.FailDelivery(2)
	for i := 1; i <= 6; i++ {
		v, err := d.Invoke("main", uint32(i))
		if i%2 == 0 {
			if err != ErrDelivery {
				t.Fatalf("call %d: err=%v, want ErrDelivery", i, err)
			}
			continue
		}
		if err != nil || v != uint32(i)+1 {
			t.Fatalf("call %d: %d, %v", i, v, err)
		}
	}
	d.FailDelivery(0)
	for i := 0; i < 4; i++ {
		if _, err := d.Invoke("main", 1); err != nil {
			t.Fatalf("after disarm: %v", err)
		}
	}
}

func TestDomainIsAGraft(t *testing.T) {
	var _ tech.Graft = (*Domain)(nil)
	d := NewDomain(loadNoop(t), 0)
	defer d.Close()
	if d.Memory() == nil {
		t.Fatal("Memory() = nil")
	}
}

func TestMeasureCrossing(t *testing.T) {
	per, err := MeasureCrossing(2000)
	if err != nil {
		t.Fatal(err)
	}
	if per <= 0 || per > time.Millisecond {
		t.Errorf("crossing time %v outside plausible range", per)
	}
	t.Logf("goroutine upcall crossing: %v", per)
}

func TestMeasureSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureSignal(exe, DefaultSignalBatch, 50)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("handled=%v ignored=%v per-signal=%v", res.Handled, res.Ignored, res.PerSignal)
	if res.Handled <= 0 || res.Ignored <= 0 {
		t.Error("trials reported nonpositive totals")
	}
	if res.PerSignal > 10*time.Millisecond {
		t.Errorf("per-signal time %v implausibly large", res.PerSignal)
	}
}

func TestMeasureSignalValidatesArgs(t *testing.T) {
	if _, err := MeasureSignal("/bin/true", 0, 1); err == nil {
		t.Error("batch=0 accepted")
	}
	if _, err := MeasureSignal("/nonexistent-exe", 20, 1); err == nil {
		t.Error("bad exe accepted")
	}
}

// TestDomainConcurrentResolve: callers on several goroutines resolve
// and call entries through one domain, their first resolves of each
// name racing one another, and every call reaches its own entry.
func TestDomainConcurrentResolve(t *testing.T) {
	g, err := tech.Load(tech.NativeUnsafe, tech.Source{Name: "three", GEL: `
func a(x) { return x + 1; }
func b(x) { return x + 2; }
func c(x) { return x + 3; }`}, mem.New(4096), tech.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDomain(g, 0)
	defer d.Close()
	entries := []string{"a", "b", "c"}
	const workers = 8
	errs := make(chan error, workers) // each worker sends at most once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (w + i) % len(entries)
				v, _, err := tech.Resolve(d, entries[k])(telemetry.SpanCtx{}, []uint32{10})
				if err != nil || v != uint32(11+k) {
					errs <- fmt.Errorf("worker %d: %s(10) = %d, %v; want %d", w, entries[k], v, err, 11+k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCrossingAllocs: once warm, a call through a domain's resolved
// handle allocates nothing — the reply channel is reused, also right
// after a garbage collection — and brings back the fuel its engine
// charged.
func TestCrossingAllocs(t *testing.T) {
	g, err := tech.Load(tech.Bytecode, tech.Source{
		Name: "incr", GEL: `func main(a) { return a + 1; }`,
	}, mem.New(4096), tech.Options{Fuel: 1000})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDomain(g, 0)
	defer d.Close()
	h := tech.Resolve(d, "main")
	args := []uint32{1}
	if v, fuel, err := h(telemetry.SpanCtx{}, args); err != nil || v != 2 || fuel <= 0 {
		t.Fatalf("crossing = %d, fuel %d, %v; want 2 and the engine's fuel", v, fuel, err)
	}
	// Each measured crossing follows a collection, which empties every
	// sync.Pool, so reuse the collector undoes does not count. Only the
	// crossing is counted, averaged over the runs as
	// testing.AllocsPerRun does, because the runtime's own allocations
	// after a collection may land in a window.
	const runs = 20
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, _, err := h(telemetry.SpanCtx{}, args); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if n := mallocs / runs; n != 0 {
		t.Errorf("a crossing after a collection allocates %d times, want 0", n)
	}
}
