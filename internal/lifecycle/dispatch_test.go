package lifecycle_test

import (
	"testing"

	"graftlab/internal/grafts"
	"graftlab/internal/kernel"
	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/vclock"
)

// dispatchTechs are the classes the allocation contract is pinned on:
// the compiled C column, the closure translator (the verified-native
// tier and the five runtime-codegen classes) and the interpreter.
var dispatchTechs = []tech.ID{
	tech.CompiledUnsafe, tech.AOT, tech.Bytecode,
	tech.NativeUnsafe, tech.NativeSafe, tech.NativeSafeNil, tech.SFI, tech.SFIFull,
}

// withTelemetry runs fn with telemetry off and on, restoring the default.
func withTelemetry(t *testing.T, fn func(t *testing.T)) {
	for _, on := range []bool{false, true} {
		name := "telemetry-off"
		if on {
			name = "telemetry-on"
		}
		t.Run(name, func(t *testing.T) {
			if on {
				resetTelemetry(t)
			}
			fn(t)
		})
	}
}

// TestSlotInvokeSteadyStateAllocs pins the dispatch contract: once warm,
// an invocation through a slot on a Single carrier allocates nothing —
// no release closure per Acquire, no per-call recording state — with or
// without telemetry.
func TestSlotInvokeSteadyStateAllocs(t *testing.T) {
	withTelemetry(t, func(t *testing.T) {
		for _, id := range dispatchTechs {
			s := lifecycle.NewSlot("allocs", id, lifecycle.Loader(id, grafts.PFMemSize, tech.Options{}))
			err := s.Activate(tech.NewArtifact(grafts.PacketFilter, 1), func(m *mem.Memory) error {
				grafts.ConfigurePacketFilter(m, 80)
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			args := []uint32{60}
			allocs := testing.AllocsPerRun(1000, func() {
				if _, err := s.Invoke("filter", args...); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: Slot.Invoke allocates %v times per call, want 0", id, allocs)
			}
		}
	})
}

// slotGraft is the hook-side adapter a kernel hook calls: a slot exposed
// as a tech.Graft over the tenant memory every version loads onto.
type slotGraft struct {
	slot *lifecycle.Slot
	m    *mem.Memory
}

func (g *slotGraft) Invoke(entry string, args ...uint32) (uint32, error) {
	r, err := g.slot.Invoke(entry, args...)
	return r.Value, err
}

func (g *slotGraft) Memory() *mem.Memory { return g.m }

// TestEvictionPolicyThroughSlotAllocs pins the fault path's policy step:
// the eviction graft behind a slot, called by the pager's hook through
// GraftEvictionPolicy, allocates nothing per victim choice.
func TestEvictionPolicyThroughSlotAllocs(t *testing.T) {
	withTelemetry(t, func(t *testing.T) {
		for _, id := range dispatchTechs {
			m := mem.New(grafts.PEMemSize)
			pg, err := kernel.NewPager(kernel.PagerConfig{
				Frames: 16, Mem: m, NodeBase: grafts.PELRUNodeBase,
			}, &vclock.Clock{})
			if err != nil {
				t.Fatal(err)
			}
			hot := grafts.NewHotList(m)
			s := lifecycle.NewSlot("evict", id, func(a tech.Artifact) (lifecycle.Carrier, error) {
				g, err := a.Load(id, m, tech.Options{})
				if err != nil {
					return nil, err
				}
				return lifecycle.Single(g), nil
			})
			if err := s.Activate(tech.NewArtifact(grafts.PageEvict, 1), nil); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			policy := grafts.NewGraftEvictionPolicy(&slotGraft{slot: s, m: m})
			pg.SetPolicy(policy)
			for page := kernel.PageID(1); page <= 16; page++ {
				if _, err := pg.Access(page); err != nil {
					t.Fatal(err)
				}
			}
			hot.Set([]kernel.PageID{1, 2, 3})
			want := kernel.PageID(4) // LRU order 1..16; the first three are hot
			allocs := testing.AllocsPerRun(1000, func() {
				v, err := policy.ChooseVictim(pg, 1)
				if err != nil || v != want {
					t.Fatalf("%s: victim %d, %v; want %d", id, v, err, want)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: ChooseVictim through a slot allocates %v times per call, want 0", id, allocs)
			}
		}
	})
}

// TestSamplingFollowsVersionCount pins why latency sampling is decided on
// each version's own count: with a 1-in-4 interval and 1-in-4 canary
// routing, sampling on the slot's sequence number would time every
// canary invocation and never the incumbent.
func TestSamplingFollowsVersionCount(t *testing.T) {
	if err := telemetry.SetSampleInterval(4); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := telemetry.SetSampleInterval(256); err != nil {
			t.Fatal(err)
		}
	})
	s := decideSlot(t, tech.Bytecode)
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Stage(tech.NewArtifact(decideSrc(2), 2), nil, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := s.Invoke("decide", 6); err != nil {
			t.Fatal(err)
		}
	}
	inc, cand := s.Incumbent().Snapshot(), s.Candidate().Snapshot()
	if inc.Invocations != 48 || cand.Invocations != 16 {
		t.Fatalf("invocations %d/%d, want 48/16", inc.Invocations, cand.Invocations)
	}
	if inc.LatencySamples != 12 || cand.LatencySamples != 4 {
		t.Fatalf("latency samples incumbent %d, candidate %d; want 12 and 4 (every 4th of each version's own invocations)",
			inc.LatencySamples, cand.LatencySamples)
	}
}

// TestCanaryLatencyGateNeedsSamples pins the latency half of the canary
// verdict under sampled timing: Cohen's d is computed over latency
// samples, so with one timed invocation per side there is no spread to
// measure against and a 1000x slower candidate is not condemned on it;
// from two samples per side the latency gate trips.
func TestCanaryLatencyGateNeedsSamples(t *testing.T) {
	if err := telemetry.SetSampleInterval(16); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := telemetry.SetSampleInterval(256); err != nil {
			t.Fatal(err)
		}
	})
	s := lifecycle.NewSlot("slowcanary", tech.Bytecode,
		lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{Fuel: 1 << 22}))
	if err := s.Activate(tech.NewArtifact(scaledSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	// v2 loops 1000x as long as v1 on the same input.
	if err := s.Stage(tech.NewArtifact(scaledSrc(2), 2), nil, 2); err != nil {
		t.Fatal(err)
	}
	run := func(n int) *lifecycle.CanaryReport {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Invoke("work", 50); err != nil {
				t.Fatal(err)
			}
		}
		r, err := s.Canary(lifecycle.CanaryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := run(32)
	if r.Incumbent.LatencySamples != 1 || r.Candidate.LatencySamples != 1 {
		t.Fatalf("latency samples %d/%d, want 1/1", r.Incumbent.LatencySamples, r.Candidate.LatencySamples)
	}
	if r.LatencyD != 0 || r.Verdict != lifecycle.VerdictPromote {
		t.Fatalf("one sample per side: d=%v verdict %s (%s), want d=0 and promote", r.LatencyD, r.Verdict, r.Reason)
	}
	r = run(32)
	if r.Incumbent.LatencySamples != 2 || r.Candidate.LatencySamples != 2 {
		t.Fatalf("latency samples %d/%d, want 2/2", r.Incumbent.LatencySamples, r.Candidate.LatencySamples)
	}
	if r.Verdict != lifecycle.VerdictRollback || r.LatencyD < stats.EffectLarge {
		t.Fatalf("two samples per side: d=%v ratio %.1f verdict %s (%s), want a latency rollback",
			r.LatencyD, r.LatencyRatio, r.Verdict, r.Reason)
	}
}
