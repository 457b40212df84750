package grafts

import (
	"testing"

	"graftlab/internal/mem"
	"graftlab/internal/tech"
)

// loadSink keeps the benchmarked loads observable to the compiler.
var loadSink tech.Graft

// BenchmarkLoadPacketFilter times tech.Load of the packet filter — the
// front end, verification and engine construction a live redeploy pays
// — under a runtime-codegen class, the AOT class and the interpreter.
func BenchmarkLoadPacketFilter(b *testing.B) {
	for _, id := range []tech.ID{tech.NativeSafe, tech.AOT, tech.Bytecode} {
		b.Run(string(id), func(b *testing.B) {
			m := mem.New(PFMemSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := tech.Load(id, PacketFilter, m, tech.Options{})
				if err != nil {
					b.Fatal(err)
				}
				loadSink = g
			}
		})
	}
}
