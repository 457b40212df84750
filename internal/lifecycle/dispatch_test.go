package lifecycle_test

import (
	"slices"
	"testing"

	"graftlab/internal/grafts"
	"graftlab/internal/kernel"
	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/stats"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/upcall"
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

// raceEnabled is set under the race detector (race_test.go), where
// sync.Pool drops a quarter of its Puts on purpose, so a pooled
// checkout cannot be allocation-free.
var raceEnabled bool

// pfConfig sets the packet filter up to pass port 80.
func pfConfig(m *mem.Memory) error {
	grafts.ConfigurePacketFilter(m, 80)
	return nil
}

// carrier names a slot loader over one kind of lifecycle.Carrier.
type carrier struct {
	name string
	load func(id tech.ID, opts tech.Options) lifecycle.LoadFunc
}

// carriers builds a slot loader for each carrier: Single over one
// configured engine, and Pooled, whose instances configure themselves.
var carriers = []carrier{
	{"single", func(id tech.ID, opts tech.Options) lifecycle.LoadFunc {
		return lifecycle.Loader(id, grafts.PFMemSize, opts)
	}},
	{"pooled", func(id tech.ID, opts tech.Options) lifecycle.LoadFunc {
		return lifecycle.PoolLoader(id, opts, tech.PoolConfig{MemSize: grafts.PFMemSize, Setup: pfConfig})
	}},
}

// TestSlotInvokeSteadyStateAllocs pins the dispatch contract: once warm,
// an invocation through a slot allocates nothing — no release closure
// per Acquire on either carrier, no per-call recording state — with or
// without telemetry.
func TestSlotInvokeSteadyStateAllocs(t *testing.T) {
	withTelemetry(t, func(t *testing.T) {
		for _, c := range carriers {
			if c.name == "pooled" && raceEnabled {
				continue
			}
			for _, id := range dispatchTechs {
				s := lifecycle.NewSlot("allocs", id, c.load(id, tech.Options{}))
				if err := s.Activate(tech.NewArtifact(grafts.PacketFilter, 1), pfConfig); err != nil {
					t.Fatalf("%s/%s: %v", c.name, id, err)
				}
				args := []uint32{60}
				allocs := testing.AllocsPerRun(1000, func() {
					if _, err := s.Invoke("filter", args...); err != nil {
						t.Fatalf("%s/%s: %v", c.name, id, err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s/%s: Slot.Invoke allocates %v times per call, want 0", c.name, id, allocs)
				}
			}
		}
	})
}

// TestFuelParitySingleAndPooled pins that the slot sees the engine's
// fuel on every carrier, with telemetry off and on: Result.Fuel is what
// the engine charged, and the versioned key records the same amount. An
// engine hosted behind an upcall domain reports its fuel through the
// crossing.
func TestFuelParitySingleAndPooled(t *testing.T) {
	upcallSingle := func(id tech.ID, opts tech.Options) lifecycle.LoadFunc {
		return func(a tech.Artifact) (lifecycle.Carrier, error) {
			g, err := a.Load(id, mem.New(grafts.PFMemSize), opts)
			if err != nil {
				return nil, err
			}
			d := upcall.NewDomain(g, 0)
			t.Cleanup(d.Close)
			return lifecycle.Single(d), nil
		}
	}
	withTelemetry(t, func(t *testing.T) {
		for _, c := range slices.Concat(carriers, []carrier{{"upcall-single", upcallSingle}}) {
			s := lifecycle.NewSlot("fuel-"+c.name, tech.Bytecode, c.load(tech.Bytecode, tech.Options{Fuel: 1 << 20}))
			if err := s.Activate(tech.NewArtifact(grafts.PacketFilter, 1), pfConfig); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			res, err := s.Invoke("filter", 60)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			snap := s.Incumbent().Snapshot()
			if res.Fuel <= 0 || snap.Invocations != 1 || snap.FuelPerInvocation != float64(res.Fuel) {
				t.Errorf("%s: Result.Fuel %d, versioned key %v fuel over %d invocations; want equal and > 0",
					c.name, res.Fuel, snap.FuelPerInvocation, snap.Invocations)
			}
		}
	})
}

// TestOneKeyPerDeployment pins the single recording path with telemetry
// on: a slot's calls register only its versioned keys, on either
// carrier, and never the source name the versions share.
func TestOneKeyPerDeployment(t *testing.T) {
	resetTelemetry(t)
	for _, c := range carriers {
		slot := "onekey-" + c.name
		s := lifecycle.NewSlot(slot, tech.Bytecode, c.load(tech.Bytecode, tech.Options{Fuel: 1 << 20}))
		if err := s.Activate(tech.NewArtifact(grafts.PacketFilter, 1), pfConfig); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := s.Stage(tech.NewArtifact(grafts.PacketFilter, 2), pfConfig, 2); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := 0; i < 8; i++ {
			if _, err := s.Invoke("filter", 60); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
	want := map[string]bool{}
	for _, c := range carriers {
		for v := uint64(1); v <= 2; v++ {
			want[lifecycle.VersionedName("onekey-"+c.name, v)] = true
		}
	}
	var got []string
	for _, m := range telemetry.Metrics() {
		got = append(got, m.GraftName)
		if !want[m.GraftName] {
			t.Errorf("slot calls registered %s/%s, want versioned keys only", m.GraftName, m.Tech)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registered keys %v, want the %d versioned keys", got, len(want))
	}
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
