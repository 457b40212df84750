package grafts

import (
	"testing"

	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/workload"
)

// handleTechs are the classes a resolved call is allocation-free on: the
// compiled and runtime-codegen classes, AOT, bytecode on the optimizing
// VM and the domain class. The script interpreter and the baseline
// reference VM allocate per call by design (argument strings, frames)
// and stay outside the bar.
var handleTechs = []tech.ID{
	tech.CompiledUnsafe, tech.CompiledSafe, tech.CompiledSafeNil, tech.CompiledSFI, tech.CompiledSFIFull,
	tech.NativeUnsafe, tech.NativeSafe, tech.NativeSafeNil, tech.SFI, tech.SFIFull,
	tech.AOT, tech.Bytecode, tech.Domain,
}

// TestResolvedCallAllocs pins the calling convention's allocation
// contract. A resolved call allocates nothing, on the bare engine and
// through the metrics shim with telemetry on; and an MD5Graft cycle —
// Reset, a 4 KB Write and Sum, each calling through a handle with the
// adapter's own argument buffer — allocates nothing either.
func TestResolvedCallAllocs(t *testing.T) {
	for _, shim := range []bool{false, true} {
		name := "bare"
		if shim {
			name = "shim"
		}
		t.Run(name, func(t *testing.T) {
			if shim {
				telemetry.SetEnabled(true)
				t.Cleanup(func() {
					telemetry.SetEnabled(false)
					telemetry.ResetMetrics()
				})
			}
			for _, id := range handleTechs {
				m := mem.New(PFMemSize)
				g, err := tech.Load(id, PacketFilter, m, tech.Options{})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				ConfigurePacketFilter(m, 80)
				h := tech.Resolve(g, "filter")
				args := []uint32{60}
				call := func() {
					if _, _, err := h(telemetry.SpanCtx{}, args); err != nil {
						t.Fatalf("%s: %v", id, err)
					}
				}
				for i := 0; i < 512; i++ { // past the shim's first timed calls
					call()
				}
				if allocs := testing.AllocsPerRun(1000, call); allocs != 0 {
					t.Errorf("%s: a resolved call allocates %v times, want 0", id, allocs)
				}
			}
		})
	}
	t.Run("md5", func(t *testing.T) {
		data := make([]byte, 4096)
		workload.FillPattern(data, 3)
		for _, id := range handleTechs {
			if id == tech.Domain {
				continue // MD5 is not expressible in the domain language
			}
			g, err := tech.Load(id, MD5, mem.New(MDMemSize), tech.Options{})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			h, err := NewMD5Graft(g)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			cycle := func() {
				if err := h.Reset(); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if _, err := h.Write(data); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if _, err := h.Sum(); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
			}
			if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
				t.Errorf("%s: an MD5Graft cycle allocates %v times, want 0", id, allocs)
			}
		}
	})
}
