package grafts

import (
	"testing"

	"graftlab/internal/aot"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
)

// TestVerifyStatsOnRequestGrafts pins how far the verifier's proofs
// reach on the four grafts the request benchmark runs: the AOT class
// elides the checks of the proven sites, while the runtime-codegen
// classes — the same translator with elision off — prove nothing and
// keep every check.
func TestVerifyStatsOnRequestGrafts(t *testing.T) {
	cases := []struct {
		src  tech.Source
		size uint32
		aot  aot.Stats
	}{
		{PageEvict, PEMemSize, aot.Stats{Loads: 6, ProvenLoads: 1}},
		{MD5, MDMemSize, aot.Stats{Loads: 20, ProvenLoads: 15, Stores: 27, ProvenStores: 20}},
		{LDMap, LDMemSize, aot.Stats{Loads: 6, ProvenLoads: 5, Stores: 5, ProvenStores: 4}},
		{PacketFilter, PFMemSize, aot.Stats{Loads: 13, ProvenLoads: 7, Stores: 1}},
	}
	stats := func(id tech.ID, src tech.Source, size uint32) aot.Stats {
		t.Helper()
		g, err := tech.Load(id, src, mem.New(size), tech.Options{})
		if err != nil {
			t.Fatalf("%s/%s: %v", src.Name, id, err)
		}
		vs, ok := g.(interface{ VerifyStats() aot.Stats })
		if !ok {
			t.Fatalf("%s/%s: %T reports no VerifyStats", src.Name, id, g)
		}
		return vs.VerifyStats()
	}
	for _, c := range cases {
		if got := stats(tech.AOT, c.src, c.size); got != c.aot {
			t.Errorf("%s/aot: %+v, want %+v", c.src.Name, got, c.aot)
		}
		unproven := aot.Stats{Loads: c.aot.Loads, Stores: c.aot.Stores}
		for _, id := range []tech.ID{tech.NativeUnsafe, tech.NativeSafe, tech.NativeSafeNil, tech.SFI, tech.SFIFull} {
			if got := stats(id, c.src, c.size); got != unproven {
				t.Errorf("%s/%s: %+v, want %+v", c.src.Name, id, got, unproven)
			}
		}
	}
}
