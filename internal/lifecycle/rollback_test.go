package lifecycle_test

import (
	"errors"
	"fmt"
	"testing"

	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// runawaySrc is a "new version" that blows its fuel budget on every
// invocation — the §4 runaway extension, deployed as an upgrade.
func runawaySrc(ver int) tech.Source {
	return tech.Source{
		Name: "decide",
		GEL: `
func decide(x) {
	var i = 0;
	while (i < 1000000) { i = i + 1; }
	return i;
}
`,
	}
}

// rollbackFuel is small enough that runawaySrc always fuel-traps and
// large enough that decideSrc never does.
const rollbackFuel = 1 << 12

func telemetrySlot(t *testing.T, name string) *lifecycle.Slot {
	t.Helper()
	return lifecycle.NewSlot(name, tech.Bytecode,
		lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{Fuel: rollbackFuel}))
}

func resetTelemetry(t *testing.T) {
	t.Helper()
	telemetry.ResetMetrics()
	telemetry.ClearQuarantines()
	telemetry.SetEnabled(true)
	t.Cleanup(func() {
		telemetry.SetEnabled(false)
		telemetry.ClearQuarantines()
		telemetry.ResetMetrics()
	})
}

// TestWatchdogDemotesBreachingCanary deploys an SLO-breaching canary
// next to a healthy incumbent and checks the armed watchdog demotes it
// automatically: routing returns to 100% incumbent, the incumbent's
// results are byte-identical to a canary-free run throughout, and the
// ledger shows zero dropped invocations.
func TestWatchdogDemotesBreachingCanary(t *testing.T) {
	resetTelemetry(t)
	r := lifecycle.NewRegistry()
	s := r.NewSlot("canaryslot", tech.Bytecode,
		lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{Fuel: rollbackFuel}))
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Stage(tech.NewArtifact(runawaySrc(2), 2), nil, 4); err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewWatchdog(telemetry.SLO{
		MaxPreemptRate: 0.5,
		MinInvocations: 16,
		Quarantine:     true,
	})
	r.Arm(w)

	// A canary-free reference of the incumbent's expected values.
	wantIncumbent := func(x uint32) uint32 { return decideValue(1, x) }

	const total = 256
	var canaryTraps, incumbentServed int
	demotedAt := -1
	for i := 0; i < total; i++ {
		x := uint32(i % 11)
		res, err := s.Invoke("decide", x)
		if res.Canary {
			// The breaching canary fuel-traps; that is the SLO breach.
			var tr *mem.Trap
			if !errors.As(err, &tr) || tr.Kind != mem.TrapFuel {
				t.Fatalf("invocation %d: canary err = %v, want fuel preemption", i, err)
			}
			canaryTraps++
		} else {
			if err != nil {
				t.Fatalf("invocation %d: incumbent err = %v", i, err)
			}
			if res.Value != wantIncumbent(x) {
				t.Fatalf("invocation %d: incumbent value %d, want %d — swap machinery perturbed the incumbent",
					i, res.Value, wantIncumbent(x))
			}
			incumbentServed++
		}
		// Demotion is committed synchronously inside w.Check below, so a
		// canary-routed invocation is only legal before that point.
		if demotedAt >= 0 && res.Canary {
			t.Fatalf("invocation %d routed to the canary after its demotion at %d", i, demotedAt)
		}
		// The operational loop: the watchdog scans periodically.
		if i%16 == 15 {
			w.Check()
		}
		if demotedAt < 0 && s.Candidate() == nil {
			demotedAt = i
		}
	}

	if demotedAt < 0 {
		t.Fatal("breaching canary was never demoted")
	}
	events := r.Events()
	if len(events) != 1 {
		t.Fatalf("guard events = %+v, want exactly one", events)
	}
	e := events[0]
	if e.Slot != "canaryslot" || e.Action != "demote" || e.Version != 2 || e.Err != nil {
		t.Fatalf("guard event = %+v, want clean demote of v2", e)
	}
	if e.Violation.Graft != lifecycle.VersionedName("canaryslot", 2) {
		t.Fatalf("violation named %q", e.Violation.Graft)
	}
	cand := s.Versions()[1]
	if cand.State() != lifecycle.StateDemoted {
		t.Fatalf("candidate state %v, want demoted", cand.State())
	}
	if telemetry.Quarantined(lifecycle.VersionedName("canaryslot", 2), string(tech.Bytecode)) == false {
		t.Fatal("breaching version's telemetry pair was not quarantined")
	}
	// Zero dropped in-flight operations: every issued invocation
	// committed against exactly one version, through the demotion.
	a := s.Accounting()
	if a.Issued != total || a.Committed != total || a.Aborted != 0 {
		t.Fatalf("ledger %+v, want %d issued == committed", a, total)
	}
	if a.Demotions != 1 {
		t.Fatalf("ledger records %d demotions, want 1", a.Demotions)
	}
	if got := int(s.Versions()[0].Invocations()); got != incumbentServed {
		t.Fatalf("incumbent recorded %d invocations, stream saw %d", got, incumbentServed)
	}
	if canaryTraps == 0 {
		t.Fatal("canary never served — the breach was never exercised")
	}
}

// TestWatchdogRollsBackBreachingIncumbent promotes a runaway version,
// then checks the armed watchdog restores the previous incumbent: the
// rollback is automatic, routing converges back to v1, and post-
// rollback results are byte-identical to a run where the bad promote
// never happened.
func TestWatchdogRollsBackBreachingIncumbent(t *testing.T) {
	resetTelemetry(t)
	r := lifecycle.NewRegistry()
	s := r.NewSlot("rbslot", tech.Bytecode,
		lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{Fuel: rollbackFuel}))
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Stage(tech.NewArtifact(runawaySrc(2), 2), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}

	w := telemetry.NewWatchdog(telemetry.SLO{
		MaxPreemptRate: 0.5,
		MinInvocations: 16,
		Quarantine:     true,
	})
	r.Arm(w)

	// The bad incumbent serves (and fuel-traps) until the watchdog's
	// next scan catches it.
	for i := 0; i < 16; i++ {
		res, err := s.Invoke("decide", 3)
		var tr *mem.Trap
		if !errors.As(err, &tr) || tr.Kind != mem.TrapFuel {
			t.Fatalf("bad incumbent invocation %d: %v", i, err)
		}
		if res.Version != 2 {
			t.Fatalf("bad incumbent invocation %d served by v%d", i, res.Version)
		}
	}
	if fresh := w.Check(); len(fresh) != 1 {
		t.Fatalf("watchdog flagged %v, want exactly the runaway incumbent", fresh)
	}

	// The rollback must already be visible: Check runs the reaction
	// synchronously.
	inc := s.Incumbent()
	if inc.Artifact.Version != 1 || inc.State() != lifecycle.StateIncumbent {
		t.Fatalf("incumbent after violation: v%d %v, want v1 restored", inc.Artifact.Version, inc.State())
	}
	events := r.Events()
	if len(events) != 1 || events[0].Action != "rollback" || events[0].Version != 2 || events[0].Err != nil {
		t.Fatalf("guard events = %+v, want clean rollback of v2", events)
	}
	if v2 := s.Versions()[1]; v2.State() != lifecycle.StateDemoted {
		t.Fatalf("rolled-back version state %v, want demoted", v2.State())
	}

	// Post-rollback traffic is indistinguishable from a run where v2
	// was never promoted.
	for i := 0; i < 32; i++ {
		x := uint32(i % 7)
		res, err := s.Invoke("decide", x)
		if err != nil || res.Version != 1 || res.Value != decideValue(1, x) {
			t.Fatalf("post-rollback invocation %d: %+v, %v", i, res, err)
		}
	}
	a := s.Accounting()
	if want := uint64(16 + 32); a.Issued != want || a.Committed != want || a.Aborted != 0 {
		t.Fatalf("ledger %+v, want %d issued == committed — no dropped ops across the rollback", a, want)
	}
	if a.Swaps != 1 || a.Rollbacks != 1 {
		t.Fatalf("ledger %+v, want 1 swap / 1 rollback", a)
	}
	// A second scan must not re-flag or re-roll (the pair is flagged
	// once, and the rollback target was consumed).
	if fresh := w.Check(); len(fresh) != 0 {
		t.Fatalf("second scan re-flagged %v", fresh)
	}
	if len(r.Events()) != 1 {
		t.Fatalf("second scan produced extra guard events: %+v", r.Events())
	}
}

// TestWatchdogHeavyCanarySparesIncumbent routes every second call to a
// fuel runaway. The breach belongs to the canary's versioned key alone:
// the watchdog flags exactly that key, and after the demotion the
// incumbent, which runs the same graft name, serves every call.
func TestWatchdogHeavyCanarySparesIncumbent(t *testing.T) {
	resetTelemetry(t)
	r := lifecycle.NewRegistry()
	s := r.NewSlot("heavyslot", tech.Bytecode,
		lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{Fuel: rollbackFuel}))
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Stage(tech.NewArtifact(runawaySrc(2), 2), nil, 2); err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewWatchdog(telemetry.SLO{
		MaxPreemptRate: 0.3,
		MinInvocations: 16,
		Quarantine:     true,
	})
	r.Arm(w)

	for i := 0; i < 600; i++ {
		s.Invoke("decide", uint32(i%11)) //nolint:errcheck // canary half preempts by design
	}
	fresh := w.Check()
	if len(fresh) != 1 || fresh[0].Graft != lifecycle.VersionedName("heavyslot", 2) {
		t.Fatalf("watchdog flagged %v, want exactly heavyslot@v2", fresh)
	}
	if s.Candidate() != nil {
		t.Fatal("breaching canary not demoted")
	}

	failed := 0
	var first error
	for i := 0; i < 2000; i++ {
		x := uint32(i % 11)
		res, err := s.Invoke("decide", x)
		if err != nil || res.Version != 1 || res.Value != decideValue(1, x) {
			if first == nil {
				first = fmt.Errorf("call %d: %+v, %v", i, res, err)
			}
			failed++
		}
	}
	if failed != 0 {
		t.Fatalf("%d of 2000 incumbent calls failed after the canary's demotion; first: %v", failed, first)
	}
}
