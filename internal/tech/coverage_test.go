package tech

import (
	"testing"

	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

var hipecSum = Source{
	Name: "hsum",
	Hipec: map[string]string{
		"main": `
	movi r1, 0
	movi r2, 1
loop:
	jlt r0, r2, done
	add r1, r1, r2
	addi r2, r2, 1
	jmp loop
done:
	ret r1
`,
	},
}

func TestDomainClassLifecycle(t *testing.T) {
	g, err := Load(Domain, hipecSum, mem.New(1<<12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := g.Invoke("main", 100); err != nil || v != 5050 {
		t.Fatalf("Invoke = %d, %v", v, err)
	}
	if _, err := g.Invoke("missing"); err == nil {
		t.Error("missing entry accepted")
	}
	if g.Memory() == nil {
		t.Error("Memory nil")
	}
	r, ok := g.(Resolver)
	if !ok {
		t.Fatal("domain graft is not a Resolver")
	}
	fn, ok := r.Resolve("main")
	if !ok {
		t.Fatal("Resolve failed")
	}
	if v, _, err := fn(telemetry.SpanCtx{}, []uint32{10}); err != nil || v != 55 {
		t.Fatalf("direct = %d, %v", v, err)
	}
	if _, ok := r.Resolve("missing"); ok {
		t.Error("Resolve resolved missing entry")
	}
}

func TestDomainClassLoadErrors(t *testing.T) {
	if _, err := Load(Domain, Source{Name: "x", GEL: "func main() {}"}, mem.New(1<<12), Options{}); err == nil {
		t.Error("domain load without Hipec accepted")
	}
	bad := Source{Name: "bad", Hipec: map[string]string{"main": "jmp nowhere"}}
	if _, err := Load(Domain, bad, mem.New(1<<12), Options{}); err == nil {
		t.Error("unassemblable program accepted")
	}
}

func TestDomainClassFuel(t *testing.T) {
	spin := Source{Name: "spin", Hipec: map[string]string{"main": "loop:\njmp loop"}}
	g, err := Load(Domain, spin, mem.New(1<<12), Options{Fuel: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Invoke("main"); err == nil {
		t.Fatal("runaway domain graft not preempted")
	}
}

// invokeOnly hides every method of a Graft but Invoke and Memory.
type invokeOnly struct{ Graft }

func TestResolveFallback(t *testing.T) {
	// A Graft without a resolver uses the generic path, with fuel 0.
	g, err := Load(Script, Source{
		Name: "s", Tcl: `proc main {a} { return [expr {$a + 1}] }`,
	}, mem.New(1<<12), Options{Fuel: 100})
	if err != nil {
		t.Fatal(err)
	}
	fn := Resolve(invokeOnly{g}, "main")
	if v, fuel, err := fn(telemetry.SpanCtx{}, []uint32{41}); err != nil || v != 42 || fuel != 0 {
		t.Fatalf("fallback = %d, fuel %d, %v", v, fuel, err)
	}
	// And a resolver short-circuits.
	g2, err := Load(Domain, hipecSum, mem.New(1<<12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn2 := Resolve(g2, "main")
	if v, _, err := fn2(telemetry.SpanCtx{}, []uint32{3}); err != nil || v != 6 {
		t.Fatalf("direct = %d, %v", v, err)
	}
	// Unknown entries degrade to the error-returning generic path.
	fn3 := Resolve(g2, "missing")
	if _, _, err := fn3(telemetry.SpanCtx{}, nil); err == nil {
		t.Fatal("missing entry succeeded")
	}
}

func TestMustLoad(t *testing.T) {
	g := MustLoad(NativeUnsafe, Source{Name: "m", GEL: "func main() { return 5; }"}, mem.New(1<<12), Options{})
	if v, _ := g.Invoke("main"); v != 5 {
		t.Fatalf("got %d", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLoad did not panic on bad source")
		}
	}()
	MustLoad(NativeUnsafe, Source{Name: "bad", GEL: "nope"}, mem.New(1<<12), Options{})
}
