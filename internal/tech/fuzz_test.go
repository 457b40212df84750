package tech_test

import (
	"strings"
	"testing"
	"time"

	"graftlab/internal/grafts"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// loadBound is the wall-clock bound on one class's load of a fuzz input
// plus its two calls of main. Fuel bounds every loop and the nesting
// bounds every recursion of the front ends, so a well-behaved input
// finishes in milliseconds; the bound leaves room for a slow host.
const loadBound = 5 * time.Second

// FuzzLoad feeds each input to every loader as hostile source: as GEL,
// as Tcl and as a HiPEC `main`, under every class in tech.All that needs
// no Source.Compiled. Loading may fail and a call may trap, but each
// load must return an engine or an error, and whatever loads has main
// resolved and called with Fuel = 1<<16, with no arguments and with
// two; each call must return a value or an error within loadBound, and
// nothing may panic. Seeds are the repo's graft sources plus small
// nesting probes just past the front ends' bounds.
func FuzzLoad(f *testing.F) {
	for _, src := range []tech.Source{
		grafts.MD5, grafts.PageEvict, grafts.LDMap, grafts.PacketFilter,
		grafts.ACL, grafts.CacheHook, grafts.SchedPolicy,
	} {
		f.Add(src.GEL)
		f.Add(src.Tcl)
		for _, asm := range src.Hipec {
			f.Add(asm)
		}
	}
	nest := func(open, inner, close string, n int) string {
		return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
	}
	for _, probe := range []string{
		"func main() { return " + nest("(", "1", ")", 1001) + "; }",
		"func main() " + nest("{", "return 1;", "}", 1001),
		"func main(a) { return " + nest("-", "a", "", 1001) + "; }",
		"proc main {} { return " + nest("[set x ", "1", "]", 1001) + " }",
		"proc main {} { return [expr {" + nest("(", "1", ")", 1001) + "}] }",
		"proc main {} { return [expr {" + nest("!", "1", "", 1001) + "}] }",
		"proc main {} { set x {" + nest("[", "", "", 1001) + "} }",
		nest("[", "", "]", 1001),
	} {
		f.Add(probe)
	}
	f.Fuzz(func(t *testing.T, s string) {
		src := tech.Source{Name: "fuzz", GEL: s, Tcl: s, Hipec: map[string]string{"main": s}}
		for _, id := range tech.All {
			if tech.NeedsCompiledImpl(id) {
				continue
			}
			start := time.Now()
			g, err := tech.NewArtifact(src, 1).Load(id, mem.New(1<<16), tech.Options{Fuel: 1 << 16})
			if err == nil {
				main := tech.Resolve(g, "main")
				_, _, _ = main(telemetry.SpanCtx{}, nil)
				_, _, _ = main(telemetry.SpanCtx{}, []uint32{3, 4})
			} else if g != nil {
				t.Fatalf("%s: load failed (%v) but returned an engine", id, err)
			}
			if d := time.Since(start); d > loadBound {
				t.Fatalf("%s: load and calls took %v, bound %v", id, d, loadBound)
			}
		}
	})
}
