package lifecycle

import (
	"fmt"
	"time"

	"graftlab/internal/stats"
)

// VersionSnapshot is one version's data-plane telemetry at a point in
// time, in the units the canary comparison consumes. Counts are exact;
// the latency figures summarize the LatencySamples timed invocations.
type VersionSnapshot struct {
	Version           uint64
	Digest            string
	State             State
	Invocations       uint64
	Traps             uint64
	Errors            uint64
	Preemptions       uint64
	FuelPerInvocation float64
	LatencySamples    uint64
	Mean              time.Duration
	Std               time.Duration
	P50               time.Duration
	P99               time.Duration
	Max               time.Duration
}

// Snapshot reads the version's lifetime telemetry. Concurrent with
// traffic the numbers are consistent-enough counters, not a
// linearizable cut.
func (v *Version) Snapshot() VersionSnapshot {
	m := v.met
	lat := m.Latency()
	s := VersionSnapshot{
		Version:        v.Artifact.Version,
		Digest:         v.Artifact.Digest,
		State:          v.State(),
		Invocations:    m.Invocations(),
		Traps:          m.Traps(),
		Errors:         m.Errors(),
		Preemptions:    m.FuelPreemptions(),
		LatencySamples: lat.Count(),
		Mean:           lat.Mean(),
		Std:            lat.Std(),
		P50:            lat.Quantile(0.50),
		P99:            lat.Quantile(0.99),
		Max:            lat.Max(),
	}
	if s.Invocations > 0 {
		s.FuelPerInvocation = float64(m.FuelConsumed()) / float64(s.Invocations)
	}
	return s
}

// failureRate is the fraction of invocations that trapped or errored.
func (s VersionSnapshot) failureRate() float64 {
	if s.Invocations == 0 {
		return 0
	}
	return float64(s.Traps+s.Errors) / float64(s.Invocations)
}

// windowSnapshot reads the version's telemetry over the trailing window
// d instead of its lifetime, via the versioned key's bucket ring.
func (v *Version) windowSnapshot(d time.Duration) VersionSnapshot {
	w := v.met.Window(d)
	s := VersionSnapshot{
		Version:        v.Artifact.Version,
		Digest:         v.Artifact.Digest,
		State:          v.State(),
		Invocations:    w.Invocations,
		Traps:          w.Traps,
		Errors:         w.Errors,
		Preemptions:    w.Preempts,
		LatencySamples: w.LatencySamples,
		Mean:           w.Mean,
		Std:            w.Std,
		P50:            w.P50,
		P99:            w.P99,
		Max:            w.Max,
	}
	if s.Invocations > 0 {
		s.FuelPerInvocation = float64(w.Fuel) / float64(s.Invocations)
	}
	return s
}

// CanaryPolicy thresholds the candidate-vs-incumbent comparison. Zero
// values take the documented defaults.
type CanaryPolicy struct {
	// MinInvocations gates any verdict until the candidate has enough
	// samples (default 16, matching telemetry.SLO).
	MinInvocations uint64
	// EffectThreshold is the minimum |Cohen's d| for a latency
	// difference to count (default stats.EffectLarge). Pairs with
	// MaxLatencyRatio the same way the benchmark regression gate pairs
	// tolerance with effect size: both must trip.
	EffectThreshold float64
	// MaxLatencyRatio is the highest acceptable candidate/incumbent mean
	// latency ratio (default 1.5).
	MaxLatencyRatio float64
	// MaxTrapRateIncrease is the largest acceptable increase of the
	// candidate's trap+error rate over the incumbent's (default 0: any
	// increase is disqualifying).
	MaxTrapRateIncrease float64
	// Window, when positive, compares the trailing Window of each
	// version's telemetry instead of lifetime aggregates — the same
	// sliding windows the watchdog burns rates over. A long-lived
	// incumbent's ancient history then cannot dilute the comparison: the
	// candidate is judged against what the incumbent is doing *now*.
	Window time.Duration
}

func (p CanaryPolicy) withDefaults() CanaryPolicy {
	if p.MinInvocations == 0 {
		p.MinInvocations = 16
	}
	if p.EffectThreshold == 0 {
		p.EffectThreshold = stats.EffectLarge
	}
	if p.MaxLatencyRatio == 0 {
		p.MaxLatencyRatio = 1.5
	}
	return p
}

// Canary verdicts.
const (
	VerdictContinue = "continue" // not enough candidate samples yet
	VerdictPromote  = "promote"  // candidate is no worse than the incumbent
	VerdictRollback = "rollback" // candidate breached the policy
)

// CanaryReport compares the staged candidate against the incumbent.
type CanaryReport struct {
	Slot      string
	Incumbent VersionSnapshot
	Candidate VersionSnapshot
	// LatencyD is Cohen's d of candidate vs incumbent latency over
	// their latency samples (positive when the candidate is slower);
	// Effect buckets |d|. It stays 0 until each side has two samples,
	// the fewest a standard deviation needs.
	LatencyD     float64
	Effect       string
	LatencyRatio float64
	// TrapRateDelta is candidate failure rate minus incumbent's.
	TrapRateDelta float64
	Verdict       string
	Reason        string
	// Window is the trailing span the snapshots cover; zero means
	// lifetime aggregates were compared.
	Window time.Duration
}

// Canary compares the staged candidate's telemetry against the
// incumbent's under policy p. It only reports; acting on the verdict
// (Promote/Demote) is the caller's or the armed watchdog's job. Returns
// ErrNoCandidate when nothing is staged.
func (s *Slot) Canary(p CanaryPolicy) (*CanaryReport, error) {
	ls := s.cur.Load()
	if ls == nil {
		return nil, ErrEmptySlot
	}
	if ls.candidate == nil {
		return nil, ErrNoCandidate
	}
	p = p.withDefaults()
	var inc, cand VersionSnapshot
	window := p.Window
	if window > 0 {
		inc = ls.incumbent.windowSnapshot(window)
		cand = ls.candidate.windowSnapshot(window)
	} else {
		window = 0
		inc = ls.incumbent.Snapshot()
		cand = ls.candidate.Snapshot()
	}
	r := &CanaryReport{
		Slot:          s.name,
		Incumbent:     inc,
		Candidate:     cand,
		Window:        window,
		TrapRateDelta: cand.failureRate() - inc.failureRate(),
	}
	if inc.LatencySamples >= 2 && cand.LatencySamples >= 2 {
		r.LatencyD = stats.CohensDStats(
			float64(inc.Mean), float64(inc.Std), int(inc.LatencySamples),
			float64(cand.Mean), float64(cand.Std), int(cand.LatencySamples))
	}
	r.Effect = stats.EffectVerdict(r.LatencyD)
	if inc.Mean > 0 {
		r.LatencyRatio = float64(cand.Mean) / float64(inc.Mean)
	}
	switch {
	case cand.Invocations < p.MinInvocations:
		r.Verdict = VerdictContinue
		r.Reason = fmt.Sprintf("candidate has %d of %d required samples",
			cand.Invocations, p.MinInvocations)
	case r.TrapRateDelta > p.MaxTrapRateIncrease:
		r.Verdict = VerdictRollback
		r.Reason = fmt.Sprintf("trap rate +%.0f%% over incumbent (max +%.0f%%)",
			100*r.TrapRateDelta, 100*p.MaxTrapRateIncrease)
	case r.LatencyRatio > p.MaxLatencyRatio && r.LatencyD >= p.EffectThreshold:
		// Both gates must trip, like the benchmark regression check: a
		// large ratio with negligible effect size is noise, a large d on
		// a tiny ratio is a difference nobody cares about.
		r.Verdict = VerdictRollback
		r.Reason = fmt.Sprintf("latency %.2fx incumbent (max %.2fx) with %s effect (d=%.1f)",
			r.LatencyRatio, p.MaxLatencyRatio, r.Effect, r.LatencyD)
	default:
		r.Verdict = VerdictPromote
		r.Reason = "candidate within policy on trap rate and latency"
	}
	return r, nil
}
