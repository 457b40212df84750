// Package lifecycle manages live graft deployments: versioned
// artifacts, canary routing, atomic hot-swap, and watchdog-triggered
// rollback.
//
// The paper's technologies stop at "load the graft"; every production
// descendant of them — eBPF program replacement, VFIO driver upgrade,
// loadable-module refresh — has to answer the harder operational
// question of replacing a live extension without dropping the traffic
// it is serving. This package answers it with optimistic revalidation:
// the data plane reads the current live set with one atomic load, runs
// the invocation without any lock, and then revalidates that the live
// set it chose is still current before recording the result. An invocation that raced a swap is re-executed
// against the new incumbent — never lost, never recorded against a
// retired version, and never torn across two versions, because the
// single atomic pointer store in Promote/Rollback/Demote is the only
// commit point.
//
// The control plane (Activate, Stage, Promote, Rollback, Demote) is
// serialized by a mutex and instrumented with kill points (SetGate) so
// the swap-atomicity suite can abort it between any two steps and
// assert the slot is either fully before or fully after the swap.
package lifecycle

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// Sentinel errors for control-plane misuse.
var (
	// ErrEmptySlot is returned by the data plane when no version has
	// been activated, and by Stage when there is no incumbent to canary
	// against.
	ErrEmptySlot = errors.New("lifecycle: slot has no incumbent")
	// ErrOccupied is returned by Activate when the slot already has an
	// incumbent (upgrades go through Stage + Promote).
	ErrOccupied = errors.New("lifecycle: slot already has an incumbent")
	// ErrNoCandidate is returned by Promote/Demote/Canary when nothing
	// is staged.
	ErrNoCandidate = errors.New("lifecycle: slot has no candidate")
	// ErrNoPrevious is returned by Rollback when no previous incumbent
	// is retained.
	ErrNoPrevious = errors.New("lifecycle: slot has no previous incumbent")
)

// Carrier abstracts how a deployed version executes: a single pinned
// engine (Single) or a pool of per-worker engines (Pooled). Acquire
// returns an engine ready for one invocation plus a release function;
// the engine must only be used between the two, from one goroutine.
type Carrier interface {
	Acquire() (tech.Graft, func(), error)
}

// singleCarrier serializes one engine. Grafts are single-goroutine by
// contract, so the mutex is what makes a lone engine safe to hang off a
// slot that concurrent workers invoke.
type singleCarrier struct {
	mu      sync.Mutex
	g       tech.Graft
	release func() // mu.Unlock, bound once: a method value per Acquire allocates
}

func (c *singleCarrier) Acquire() (tech.Graft, func(), error) {
	c.mu.Lock()
	return c.g, c.release, nil
}

// Single wraps one loaded engine as a Carrier, serializing access.
func Single(g tech.Graft) Carrier {
	c := &singleCarrier{g: g}
	c.release = c.mu.Unlock
	return c
}

// Pooled uses a tech.Pool as a Carrier: each Acquire checks out a
// private instance's engine, so concurrent invocations never share one,
// and the checkout allocates nothing.
func Pooled(p *tech.Pool) Carrier { return p }

// LoadFunc materializes an artifact into an executable Carrier. It runs
// under the slot's control-plane lock, once per deploy. Its engines
// should be bare (Artifact.Load, Artifact.NewPool): the slot records them.
type LoadFunc func(a tech.Artifact) (Carrier, error)

// Loader builds the common LoadFunc: a fresh linear memory of memSize
// bytes per version, loaded under technology id, wrapped in Single.
func Loader(id tech.ID, memSize uint32, opts tech.Options) LoadFunc {
	return func(a tech.Artifact) (Carrier, error) {
		g, err := a.Load(id, mem.New(memSize), opts)
		if err != nil {
			return nil, err
		}
		return Single(g), nil
	}
}

// PoolLoader builds a LoadFunc that backs each version with its own
// artifact pool — the carrier for slots invoked by concurrent workers.
func PoolLoader(id tech.ID, opts tech.Options, cfg tech.PoolConfig) LoadFunc {
	return func(a tech.Artifact) (Carrier, error) {
		p, err := a.NewPool(id, opts, cfg)
		if err != nil {
			return nil, err
		}
		return Pooled(p), nil
	}
}

// Point names one instrumented step of the lifecycle protocol, for the
// kill-point suites. Data-plane points (invoke:*) are injection hooks:
// the gate runs but its error is ignored. Control-plane points abort
// the operation when the gate errors — before the commit point the
// operation must leave no visible change; after it, the swap is done
// and the error only reports where the "crash" landed.
type Point string

const (
	PointChosen   Point = "invoke:chosen"
	PointInvoked  Point = "invoke:ran"
	PointRecorded Point = "invoke:recorded"

	PointDeployLoaded    Point = "deploy:loaded"
	PointDeployPrepped   Point = "deploy:prepped"
	PointDeployPublished Point = "deploy:published"

	PointSwapBegin     Point = "swap:begin"
	PointSwapPrepared  Point = "swap:prepared"
	PointSwapCommitted Point = "swap:committed"
	PointSwapRetired   Point = "swap:retired"

	PointRollbackBegin     Point = "rollback:begin"
	PointRollbackCommitted Point = "rollback:committed"
	PointDemoteBegin       Point = "demote:begin"
	PointDemoteCommitted   Point = "demote:committed"
)

// GateFunc observes (and, for control-plane points, may abort) one
// protocol step. Installed with Slot.SetGate; test-only in spirit.
type GateFunc func(p Point) error

// State tracks where a version is in its life. Observability only —
// routing is decided by the live set, not by these markers, so they are
// updated best-effort after the commit point.
type State int32

const (
	StateCandidate State = iota
	StateIncumbent
	StateRetired // displaced by a promote; retained as the rollback target
	StateDemoted // removed by a rollback, demote, or watchdog verdict
)

func (s State) String() string {
	switch s {
	case StateCandidate:
		return "candidate"
	case StateIncumbent:
		return "incumbent"
	case StateRetired:
		return "retired"
	case StateDemoted:
		return "demoted"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Version is one deployed artifact: the immutable identity plus the
// executable carrier and the telemetry split out per version (the
// canary comparison needs candidate and incumbent distributions kept
// apart even though both serve the same slot).
type Version struct {
	Artifact tech.Artifact
	carrier  Carrier
	state    atomic.Int32
	// met is the version's one recording path, keyed by the versioned
	// name ("pktfilter@v2"). While telemetry is enabled at deploy time
	// it is registered — the name the watchdog flags and the export
	// surface shows — and same-named slots share it; otherwise the
	// version owns it unregistered.
	met *telemetry.GraftMetrics
	// committed counts invocations recorded against this version
	// alone, for the slot's conservation ledger (met may be shared).
	committed atomic.Uint64
}

// State reports the version's lifecycle state marker.
func (v *Version) State() State { return State(v.state.Load()) }

// setState moves the lifecycle marker and mirrors it as the telemetry
// note on the versioned key, so the export surface and graftmon can
// flag deployment state ("canary", "incumbent", "demoted") next to the
// windowed numbers without importing this package.
func (v *Version) setState(s State) {
	v.state.Store(int32(s))
	note := s.String()
	if s == StateCandidate {
		note = "canary"
	}
	v.met.SetNote(note)
}

// Invocations reports how many invocations committed against v.
func (v *Version) Invocations() uint64 { return v.committed.Load() }

// sampled reports whether the version's next invocation is timed. It
// follows the version's own count, not the slot's sequence number: the
// canary cadence is a function of the sequence number, so 1-in-4
// routing under a 1-in-256 interval would otherwise never time the
// incumbent. Concurrent invocations may read the same count; sampling
// stays 1-in-N on average, which is all the histograms need.
func (v *Version) sampled() bool { return (v.committed.Load()+1)&v.met.Mask() == 0 }

// record commits one completed invocation's telemetry. Called only
// after the live-set revalidation in Slot.Do, so every execution is
// recorded at most once and always against the version that served it.
// Only a timed invocation or an error reads the clock.
func (v *Version) record(err error, timed bool, lat time.Duration, fuel int64) {
	v.committed.Add(1)
	v.met.Count(fuel)
	if timed {
		v.met.RecordLatency(lat)
	}
	if err != nil {
		v.met.RecordError(err)
	}
}

// VersionedName renders the telemetry registry name for version v of a
// slot: "pktfilter@v2". The watchdog flags (graft, tech) pairs by this
// name, which is how a violation maps back to a specific deployment.
func VersionedName(slot string, v uint64) string {
	return fmt.Sprintf("%s@v%d", slot, v)
}

// liveSet is the immutable routing table the data plane reads with one
// atomic load. Every control-plane operation publishes a fresh liveSet
// (never mutates the current one) with a bumped epoch, so pointer
// identity doubles as the revalidation token.
type liveSet struct {
	epoch       uint64
	incumbent   *Version
	candidate   *Version // nil when nothing is staged
	canaryEvery uint64   // route every n-th invocation to the candidate
}

// Result describes one committed invocation.
type Result struct {
	Value uint32
	// Version and Epoch identify the deployment that served the
	// invocation — the liveSet that survived revalidation.
	Version uint64
	Epoch   uint64
	// Canary is set when the invocation was routed to the candidate.
	Canary bool
	// Retries counts executions discarded because a swap committed
	// mid-flight; the recorded execution ran against the new live set.
	Retries int
	Fuel    int64
}

// Slot is one named extension point (e.g. the packet filter) with a
// live deployment history. The data plane (Do/Invoke) is lock-free on
// the slot: one atomic liveSet load, one revalidation load. The control
// plane is serialized by mu.
type Slot struct {
	name string
	tech tech.ID
	load LoadFunc

	cur  atomic.Pointer[liveSet]
	gate atomic.Pointer[GateFunc]

	mu       sync.Mutex
	prev     *Version   // rollback target; set by Promote, consumed by Rollback
	versions []*Version // every version ever deployed, in deploy order

	seq       atomic.Uint64 // invocations issued
	aborted   atomic.Uint64 // issued but failed before execution (quarantine/acquire/prep)
	retries   atomic.Uint64 // executions discarded by swap revalidation
	swaps     atomic.Uint64
	rollbacks atomic.Uint64
	demotions atomic.Uint64
}

// NewSlot builds an unregistered slot. Most callers go through
// Registry.NewSlot instead.
func NewSlot(name string, id tech.ID, load LoadFunc) *Slot {
	return &Slot{name: name, tech: id, load: load}
}

// Name reports the slot's name.
func (s *Slot) Name() string { return s.name }

// Tech reports the technology versions deploy under.
func (s *Slot) Tech() tech.ID { return s.tech }

// SetGate installs (nil removes) the kill-point gate.
func (s *Slot) SetGate(fn GateFunc) {
	if fn == nil {
		s.gate.Store(nil)
		return
	}
	s.gate.Store(&fn)
}

func (s *Slot) gateAt(p Point) error {
	if f := s.gate.Load(); f != nil {
		return (*f)(p)
	}
	return nil
}

// Epoch reports the current live-set epoch (0 when empty).
func (s *Slot) Epoch() uint64 {
	if ls := s.cur.Load(); ls != nil {
		return ls.epoch
	}
	return 0
}

// Incumbent returns the currently routed version (nil when empty).
func (s *Slot) Incumbent() *Version {
	if ls := s.cur.Load(); ls != nil {
		return ls.incumbent
	}
	return nil
}

// Candidate returns the staged version (nil when nothing is staged).
func (s *Slot) Candidate() *Version {
	if ls := s.cur.Load(); ls != nil {
		return ls.candidate
	}
	return nil
}

// Versions returns every version ever deployed, in deploy order.
func (s *Slot) Versions() []*Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Version(nil), s.versions...)
}

// deploy loads an artifact and runs the optional prep against one
// acquired instance. Caller holds s.mu. prep sees a single engine's
// memory; pooled carriers should initialize per-instance state through
// tech.PoolConfig.Setup instead, which runs for every instance.
func (s *Slot) deploy(a tech.Artifact, prep func(m *mem.Memory) error) (*Version, error) {
	carrier, err := s.load(a)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: load %s: %w", a.Ref(), err)
	}
	if err := s.gateAt(PointDeployLoaded); err != nil {
		return nil, err
	}
	if prep != nil {
		g, release, err := carrier.Acquire()
		if err != nil {
			return nil, fmt.Errorf("lifecycle: prep %s: %w", a.Ref(), err)
		}
		perr := prep(g.Memory())
		release()
		if perr != nil {
			return nil, fmt.Errorf("lifecycle: prep %s: %w", a.Ref(), perr)
		}
	}
	if err := s.gateAt(PointDeployPrepped); err != nil {
		return nil, err
	}
	v := &Version{Artifact: a, carrier: carrier}
	name := VersionedName(s.name, a.Version)
	if telemetry.Enabled() {
		v.met = telemetry.Register(name, string(s.tech))
	} else {
		v.met = telemetry.NewGraftMetrics(name, string(s.tech))
	}
	v.setState(StateCandidate)
	return v, nil
}

// Activate deploys the slot's first incumbent. Upgrades of an occupied
// slot go through Stage + Promote so in-flight traffic is never served
// by an unvetted version.
func (s *Slot) Activate(a tech.Artifact, prep func(m *mem.Memory) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur.Load() != nil {
		return ErrOccupied
	}
	v, err := s.deploy(a, prep)
	if err != nil {
		return err
	}
	v.setState(StateIncumbent)
	s.versions = append(s.versions, v)
	s.cur.Store(&liveSet{epoch: 1, incumbent: v})
	return s.gateAt(PointDeployPublished)
}

// Stage deploys a candidate next to the incumbent and starts canary
// routing: every canaryEvery-th invocation is served by the candidate
// (0 stages without routing any traffic). A gate error before the
// publish leaves the slot unchanged.
func (s *Slot) Stage(a tech.Artifact, prep func(m *mem.Memory) error, canaryEvery uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.cur.Load()
	if ls == nil {
		return ErrEmptySlot
	}
	v, err := s.deploy(a, prep)
	if err != nil {
		return err
	}
	s.versions = append(s.versions, v)
	s.cur.Store(&liveSet{
		epoch:       ls.epoch + 1,
		incumbent:   ls.incumbent,
		candidate:   v,
		canaryEvery: canaryEvery,
	})
	return s.gateAt(PointDeployPublished)
}

// Promote makes the candidate the incumbent — the hot swap. The single
// liveSet store is the commit point: a gate error before it leaves the
// slot unchanged (the retried Promote succeeds); after it the swap is
// durable and the error only reports where the crash landed. The
// displaced incumbent is retained as the rollback target.
func (s *Slot) Promote() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateAt(PointSwapBegin); err != nil {
		return err
	}
	ls := s.cur.Load()
	if ls == nil {
		return ErrEmptySlot
	}
	if ls.candidate == nil {
		return ErrNoCandidate
	}
	next := &liveSet{epoch: ls.epoch + 1, incumbent: ls.candidate}
	if err := s.gateAt(PointSwapPrepared); err != nil {
		return err
	}
	s.cur.Store(next) // commit point
	s.prev = ls.incumbent
	s.swaps.Add(1)
	if err := s.gateAt(PointSwapCommitted); err != nil {
		return err
	}
	ls.candidate.setState(StateIncumbent)
	ls.incumbent.setState(StateRetired)
	return s.gateAt(PointSwapRetired)
}

// Rollback restores the previous incumbent, demoting the current one
// (and any staged candidate). One level deep: the rollback target is
// consumed, so a second Rollback without an intervening Promote fails.
func (s *Slot) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateAt(PointRollbackBegin); err != nil {
		return err
	}
	ls := s.cur.Load()
	if ls == nil {
		return ErrEmptySlot
	}
	if s.prev == nil {
		return ErrNoPrevious
	}
	restored := s.prev
	s.cur.Store(&liveSet{epoch: ls.epoch + 1, incumbent: restored}) // commit point
	s.prev = nil
	s.rollbacks.Add(1)
	restored.setState(StateIncumbent)
	ls.incumbent.setState(StateDemoted)
	if ls.candidate != nil {
		ls.candidate.setState(StateDemoted)
	}
	return s.gateAt(PointRollbackCommitted)
}

// Demote drops the staged candidate, keeping the incumbent — the
// watchdog's verdict on a canary that breached its SLO.
func (s *Slot) Demote() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateAt(PointDemoteBegin); err != nil {
		return err
	}
	ls := s.cur.Load()
	if ls == nil {
		return ErrEmptySlot
	}
	if ls.candidate == nil {
		return ErrNoCandidate
	}
	s.cur.Store(&liveSet{epoch: ls.epoch + 1, incumbent: ls.incumbent}) // commit point
	s.demotions.Add(1)
	ls.candidate.setState(StateDemoted)
	return s.gateAt(PointDemoteCommitted)
}

// Invoke runs entry through the slot's live routing. See Do.
func (s *Slot) Invoke(entry string, args ...uint32) (Result, error) {
	return s.Do(entry, nil, args...)
}

// Do runs one invocation through the live set: choose a version
// (incumbent, or candidate on the canary cadence), run prep against the
// acquired engine's memory, invoke, then revalidate that the live set
// is still current before recording — the pager's optimistic
// revalidation applied to dispatch. If a swap committed mid-flight the
// completed execution is discarded and re-run against the new live set,
// so the caller's operation is neither lost nor attributed to a retired
// version. The returned error is the graft's own result (traps
// included); acquire/prep failures abort without retrying.
//
// A version whose key the watchdog quarantined is refused with
// telemetry.ErrQuarantined before acquire and counted as aborted, so
// its window drains for probation.
//
// The recording is one exact count per invocation; only every N-th
// invocation of a version (N the telemetry sample interval) is timed,
// so an untimed, error-free invocation reads no clock and allocates
// nothing.
func (s *Slot) Do(entry string, prep func(m *mem.Memory) error, args ...uint32) (Result, error) {
	var res Result
	var n uint64
	for {
		ls := s.cur.Load()
		if ls == nil {
			return res, ErrEmptySlot
		}
		if n == 0 {
			n = s.seq.Add(1)
		}
		v := ls.incumbent
		canary := false
		if ls.candidate != nil && ls.canaryEvery > 0 && n%ls.canaryEvery == 0 {
			v = ls.candidate
			canary = true
		}
		if v.met.Quarantined() {
			s.aborted.Add(1)
			return res, fmt.Errorf("lifecycle: %s: %w", v.Artifact.Ref(), telemetry.ErrQuarantined)
		}
		s.gateAt(PointChosen)
		g, release, err := v.carrier.Acquire()
		if err != nil {
			s.aborted.Add(1)
			return res, fmt.Errorf("lifecycle: acquire %s: %w", v.Artifact.Ref(), err)
		}
		if prep != nil {
			if perr := prep(g.Memory()); perr != nil {
				release()
				s.aborted.Add(1)
				return res, fmt.Errorf("lifecycle: prep %s: %w", v.Artifact.Ref(), perr)
			}
		}
		timed := v.sampled()
		var start time.Time
		if timed {
			start = time.Now()
		}
		val, ierr := g.Invoke(entry, args...)
		var lat time.Duration
		if timed {
			lat = time.Since(start)
		}
		var fuel int64
		if fr, ok := g.(tech.FuelReporter); ok {
			fuel = fr.FuelUsed()
		}
		release()
		s.gateAt(PointInvoked)
		if s.cur.Load() != ls {
			// A control-plane commit landed while the graft ran. The
			// execution above might have used a version that is no longer
			// live — discard it and revalidate against the new incumbent,
			// exactly like a pager proposal that went stale unlocked.
			res.Retries++
			s.retries.Add(1)
			continue
		}
		v.record(ierr, timed, lat, fuel)
		res.Value = val
		res.Version = v.Artifact.Version
		res.Epoch = ls.epoch
		res.Canary = canary
		res.Fuel = fuel
		s.gateAt(PointRecorded)
		return res, ierr
	}
}

// Accounting is the slot's conservation ledger: every issued invocation
// is either committed against exactly one version or aborted before
// execution, regardless of how many swaps it raced.
type Accounting struct {
	Issued    uint64 // Do calls that saw a live slot
	Committed uint64 // recorded executions, summed over all versions
	Aborted   uint64 // failed before execution (quarantine, acquire/prep errors)
	Retried   uint64 // executions discarded by swap revalidation
	Swaps     uint64
	Rollbacks uint64
	Demotions uint64
}

// Accounting snapshots the ledger. Quiescent (no Do in flight), it must
// satisfy Issued == Committed + Aborted.
func (s *Slot) Accounting() Accounting {
	s.mu.Lock()
	versions := append([]*Version(nil), s.versions...)
	s.mu.Unlock()
	a := Accounting{
		Issued:    s.seq.Load(),
		Aborted:   s.aborted.Load(),
		Retried:   s.retries.Load(),
		Swaps:     s.swaps.Load(),
		Rollbacks: s.rollbacks.Load(),
		Demotions: s.demotions.Load(),
	}
	for _, v := range versions {
		a.Committed += v.committed.Load()
	}
	return a
}
