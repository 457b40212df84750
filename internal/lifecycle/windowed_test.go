package lifecycle_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"graftlab/internal/lifecycle"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// scaledSrc builds a version of the "work" graft whose fuel consumption
// scales with its argument times the version's multiplier: v1 loops x
// times, v2 loops 1000x times. Against a 4096-fuel budget, x=5 makes v2
// preempt while v1 stays healthy, and x=0 makes both trivially clean —
// the knobs the windowed tests below dial without redeploying.
func scaledSrc(ver int) tech.Source {
	mult := 1
	if ver >= 2 {
		mult = 1000
	}
	return tech.Source{
		Name: "work",
		GEL: fmt.Sprintf(`
func work(x) {
	var i = 0;
	while (i < x * %d) { i = i + 1; }
	return i + %d;
}
`, mult, ver*1000),
	}
}

// smallWindows shrinks the bucket geometry so window rotation happens in
// tens of milliseconds, and restores the default afterwards. It must run
// before the slot deploys (rings are sized at Register time).
func smallWindows(t *testing.T) {
	t.Helper()
	if err := telemetry.SetWindowConfig(telemetry.WindowConfig{
		Width:   50 * time.Millisecond,
		Buckets: 64,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := telemetry.SetWindowConfig(telemetry.DefaultWindowConfig); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCanaryWindowedForgivesAgedBlip pins the windowed comparison: a
// candidate that preempted during a brief warmup blip but has since run
// clean is judged on its trailing window (promote), while the lifetime
// aggregate still holds the blip against it forever (rollback). This is
// the deployment-side version of the watchdog's burn-rate argument —
// verdicts should follow current behaviour, not history.
func TestCanaryWindowedForgivesAgedBlip(t *testing.T) {
	resetTelemetry(t)
	smallWindows(t)

	s := lifecycle.NewSlot("blipslot", tech.Bytecode,
		lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{Fuel: 1 << 12}))
	if err := s.Activate(tech.NewArtifact(scaledSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	// Route every second invocation to the candidate.
	if err := s.Stage(tech.NewArtifact(scaledSrc(2), 2), nil, 2); err != nil {
		t.Fatal(err)
	}

	// Warmup blip: x=5 costs v2 5000 iterations against a 4096 budget —
	// every canary invocation preempts; the incumbent (5 iterations) is
	// untouched.
	var blipTraps int
	for i := 0; i < 40; i++ {
		res, err := s.Invoke("work", 5)
		if res.Canary && err != nil {
			blipTraps++
		} else if !res.Canary && err != nil {
			t.Fatalf("incumbent failed during blip: %v", err)
		}
	}
	if blipTraps == 0 {
		t.Fatal("blip never exercised the candidate's preemption")
	}

	// The blip ages out of the comparison window...
	time.Sleep(500 * time.Millisecond)
	// ...and the candidate runs clean (x=0: zero loop iterations).
	for i := 0; i < 64; i++ {
		if _, err := s.Invoke("work", 0); err != nil {
			t.Fatalf("post-blip invocation %d: %v", i, err)
		}
	}

	// MaxLatencyRatio is slackened so this test isolates the trap-rate
	// gate; latency effects on sub-microsecond bytecode runs are noise.
	policy := lifecycle.CanaryPolicy{MinInvocations: 16, MaxLatencyRatio: 1000}

	lifetime, err := s.Canary(policy)
	if err != nil {
		t.Fatal(err)
	}
	if lifetime.Verdict != lifecycle.VerdictRollback {
		t.Fatalf("lifetime verdict = %s (%s), want rollback: the blip is in the aggregate forever",
			lifetime.Verdict, lifetime.Reason)
	}
	if lifetime.Window != 0 {
		t.Errorf("lifetime report claims window %v", lifetime.Window)
	}

	policy.Window = 200 * time.Millisecond
	windowed, err := s.Canary(policy)
	if err != nil {
		t.Fatal(err)
	}
	if windowed.Verdict != lifecycle.VerdictPromote {
		t.Fatalf("windowed verdict = %s (%s), want promote: the blip aged out",
			windowed.Verdict, windowed.Reason)
	}
	if windowed.Window != 200*time.Millisecond {
		t.Errorf("windowed report window = %v", windowed.Window)
	}
	if windowed.Candidate.Traps != 0 {
		t.Errorf("windowed candidate still shows %d traps", windowed.Candidate.Traps)
	}
	if windowed.Candidate.Invocations < policy.MinInvocations {
		t.Errorf("windowed candidate has only %d invocations", windowed.Candidate.Invocations)
	}
}

// TestLifecycleNotesFollowStates pins the telemetry note mirror: the
// versioned keys carry "canary"/"incumbent"/"demoted"/"retired" labels
// as versions move through the state machine, so the export surface and
// graftmon can flag deployment state.
func TestLifecycleNotesFollowStates(t *testing.T) {
	resetTelemetry(t)

	s := lifecycle.NewSlot("noteslot", tech.Bytecode,
		lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{Fuel: 1 << 12}))
	if err := s.Activate(tech.NewArtifact(scaledSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	note := func(ver uint64) string {
		m := telemetry.Register(lifecycle.VersionedName("noteslot", ver), string(tech.Bytecode))
		return m.Note()
	}
	if got := note(1); got != "incumbent" {
		t.Fatalf("v1 note after Activate = %q", got)
	}
	if err := s.Stage(tech.NewArtifact(scaledSrc(1), 2), nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := note(2); got != "canary" {
		t.Fatalf("v2 note after Stage = %q", got)
	}
	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := note(2); got != "incumbent" {
		t.Fatalf("v2 note after Promote = %q", got)
	}
	if got := note(1); got != "retired" {
		t.Fatalf("v1 note after Promote = %q", got)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := note(1); got != "incumbent" {
		t.Fatalf("v1 note after Rollback = %q", got)
	}
	if got := note(2); got != "demoted" {
		t.Fatalf("v2 note after Rollback = %q", got)
	}
}

// TestArmRecordsUnquarantineRecovery closes the loop the ISSUE's
// watchdog rewrite promises: a breaching canary is demoted and
// quarantined; once its fast window drains, the watchdog's probation
// lifts the quarantine automatically and the registry's audit trail
// records the unquarantine against the right version.
func TestArmRecordsUnquarantineRecovery(t *testing.T) {
	resetTelemetry(t)
	smallWindows(t)

	r := lifecycle.NewRegistry()
	s := r.NewSlot("healslot", tech.Bytecode,
		lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{Fuel: 1 << 12}))
	if err := s.Activate(tech.NewArtifact(scaledSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Stage(tech.NewArtifact(scaledSrc(2), 2), nil, 2); err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewWatchdog(telemetry.SLO{
		MaxPreemptRate: 0.5,
		MinInvocations: 16,
		FastWindow:     200 * time.Millisecond,
		SlowWindow:     time.Second,
		RecoveryChecks: 2,
		Quarantine:     true,
	})
	r.Arm(w)

	// The canary preempts on every routed invocation (x=5 → 5000
	// iterations against 4096 fuel).
	for i := 0; i < 64; i++ {
		s.Invoke("work", 5) //nolint:errcheck // canary halves trap by design
	}
	if fresh := w.Check(); len(fresh) != 1 {
		t.Fatalf("watchdog flagged %v, want the canary", fresh)
	}
	v2name := lifecycle.VersionedName("healslot", 2)
	if !telemetry.Quarantined(v2name, string(tech.Bytecode)) {
		t.Fatal("breaching canary not quarantined")
	}
	if s.Candidate() != nil {
		t.Fatal("breaching canary not demoted")
	}

	// Demoted: no more traffic reaches v2, so its fast window drains.
	time.Sleep(400 * time.Millisecond)
	w.Check()
	if !telemetry.Quarantined(v2name, string(tech.Bytecode)) {
		t.Fatal("unquarantined after one clean scan, want two")
	}
	w.Check()
	if telemetry.Quarantined(v2name, string(tech.Bytecode)) {
		t.Fatal("quarantine not lifted after probation")
	}

	events := r.Events()
	if len(events) != 2 {
		t.Fatalf("guard events = %+v, want demote then unquarantine", events)
	}
	if events[0].Action != "demote" || events[0].Version != 2 {
		t.Fatalf("first event = %+v", events[0])
	}
	e := events[1]
	if e.Action != "unquarantine" || e.Slot != "healslot" || e.Version != 2 || e.Err != nil {
		t.Fatalf("recovery event = %+v", e)
	}
	if e.Recovery.Graft != v2name || e.Recovery.Checks != 2 {
		t.Fatalf("recovery detail = %+v", e.Recovery)
	}
}

// TestQuarantinedSingleVersionSlot quarantines a slot's only version:
// the armed rollback has nothing to restore, so the slot refuses every
// call with ErrQuarantined and counts it as aborted. Refused calls are
// not recorded against the version, so its window drains, probation
// lifts the quarantine, and the version serves again.
func TestQuarantinedSingleVersionSlot(t *testing.T) {
	resetTelemetry(t)
	smallWindows(t)

	r := lifecycle.NewRegistry()
	s := r.NewSlot("soloslot", tech.Bytecode,
		lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{Fuel: 1 << 12}))
	// scaledSrc(2) preempts at x=5 and runs clean at x=0.
	if err := s.Activate(tech.NewArtifact(scaledSrc(2), 1), nil); err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewWatchdog(telemetry.SLO{
		MaxPreemptRate: 0.5,
		MinInvocations: 16,
		FastWindow:     200 * time.Millisecond,
		SlowWindow:     time.Second,
		RecoveryChecks: 2,
		Quarantine:     true,
	})
	r.Arm(w)

	const breaching, refused = 600, 1000
	for i := 0; i < breaching; i++ {
		if _, err := s.Invoke("work", 5); err == nil {
			t.Fatalf("call %d did not preempt", i)
		}
	}
	name := lifecycle.VersionedName("soloslot", 1)
	if fresh := w.Check(); len(fresh) != 1 || fresh[0].Graft != name {
		t.Fatalf("watchdog flagged %v, want exactly %s", fresh, name)
	}
	events := r.Events()
	if len(events) != 1 || events[0].Action != "rollback" || !errors.Is(events[0].Err, lifecycle.ErrNoPrevious) {
		t.Fatalf("guard events = %+v, want one rollback failing with ErrNoPrevious", events)
	}

	for i := 0; i < refused; i++ {
		if _, err := s.Invoke("work", 0); !errors.Is(err, telemetry.ErrQuarantined) {
			t.Fatalf("call %d on the quarantined version: %v, want ErrQuarantined", i, err)
		}
	}
	a := s.Accounting()
	if a.Issued != breaching+refused || a.Committed != breaching || a.Aborted != refused {
		t.Fatalf("ledger %+v, want %d issued = %d committed + %d aborted",
			a, breaching+refused, breaching, refused)
	}

	// The refused calls left the version's fast window empty.
	time.Sleep(400 * time.Millisecond)
	w.Check()
	w.Check()
	if telemetry.Quarantined(name, string(tech.Bytecode)) {
		t.Fatal("probation did not lift the quarantine")
	}
	res, err := s.Invoke("work", 0)
	if err != nil || res.Version != 1 {
		t.Fatalf("call after probation: %+v, %v", res, err)
	}
}
