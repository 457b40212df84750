package lifecycle_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// The swap-atomicity kill-point suite. Each kill point interrupts the
// invoke/swap interleaving at one instrumented step — either by
// committing a Promote inline at an arbitrary data-plane step, or by
// aborting the Promote critical section itself at one of its gate
// points — and then checks the invariants a hot swap must preserve:
//
//   - every committed invocation's value, trap kind, and fuel agree
//     with a swap-free oracle run of the version that served it (no
//     invocation executes against a torn policy);
//   - the version sequence observed by the invocation stream is
//     monotone v1 → v2 (no flip-flopping, no lost swap);
//   - the slot's ledger balances: every issued invocation committed
//     against exactly one version (none lost, none double-counted).

// kpTech is one technology column of the suite.
type kpTech struct {
	name string
	id   tech.ID
	opts tech.Options
}

func kpTechs() []kpTech {
	fuel := tech.Options{Fuel: 1 << 20}
	baseline := fuel
	baseline.VM = tech.VMBaseline
	return []kpTech{
		{"bytecode-opt", tech.Bytecode, fuel},
		{"bytecode-baseline", tech.Bytecode, baseline},
		{"aot", tech.AOT, fuel},
		{"native-safe", tech.NativeSafe, fuel},
	}
}

// kpOutcome is the oracle record for one (version, input) pair.
type kpOutcome struct {
	val  uint32
	trap mem.TrapKind
	fuel int64
}

// kpOracle runs each (version, input) pair once on a private, swap-free
// engine and caches the outcome. Engines are cached too: the decide
// graft is stateless, so reuse keeps a 1000-point sweep cheap.
type kpOracle struct {
	mu     sync.Mutex
	grafts map[string]tech.Graft
	runs   map[string]kpOutcome
}

func newKPOracle() *kpOracle {
	return &kpOracle{grafts: map[string]tech.Graft{}, runs: map[string]kpOutcome{}}
}

func (o *kpOracle) graft(t *testing.T, tc kpTech, ver int) tech.Graft {
	t.Helper()
	key := fmt.Sprintf("%s/v%d", tc.name, ver)
	o.mu.Lock()
	defer o.mu.Unlock()
	g, ok := o.grafts[key]
	if !ok {
		var err error
		g, err = tech.Load(tc.id, decideSrc(ver), mem.New(decideMemSize), tc.opts)
		if err != nil {
			t.Fatalf("oracle load %s: %v", key, err)
		}
		o.grafts[key] = g
	}
	return g
}

func (o *kpOracle) outcome(t *testing.T, tc kpTech, ver int, x uint32) kpOutcome {
	t.Helper()
	key := fmt.Sprintf("%s/v%d/%d", tc.name, ver, x)
	o.mu.Lock()
	out, ok := o.runs[key]
	o.mu.Unlock()
	if ok {
		return out
	}
	g := o.graft(t, tc, ver)
	val, fuel, err := tech.Resolve(g, "decide")(telemetry.SpanCtx{}, []uint32{x})
	out = kpOutcome{val: val, fuel: fuel}
	if err != nil {
		var tr *mem.Trap
		if !errors.As(err, &tr) {
			t.Fatalf("oracle %s: non-trap error %v", key, err)
		}
		out.trap = tr.Kind
	}
	o.mu.Lock()
	o.runs[key] = out
	o.mu.Unlock()
	return out
}

// kpCarriers caches one live carrier per (tech, version) so a fresh
// Slot per kill point costs no engine loads. Slot state (versions,
// ledger, live set) is rebuilt every point; only the engines persist.
func kpCarriers(t *testing.T, o *kpOracle, tc kpTech) lifecycle.LoadFunc {
	carriers := map[uint64]lifecycle.Carrier{}
	return func(a tech.Artifact) (lifecycle.Carrier, error) {
		c, ok := carriers[a.Version]
		if !ok {
			c = lifecycle.Single(o.graft(t, tc, int(a.Version)))
			carriers[a.Version] = c
		}
		return c, nil
	}
}

// kpInputs is the per-point invocation stream: mixed values plus the
// poison input 13 (OOB load) so trap behavior crosses the swap too.
func kpInputs(rng *rand.Rand) []uint32 {
	in := make([]uint32, 12)
	for i := range in {
		in[i] = uint32(rng.Intn(20))
		if i == 4 || i == 9 {
			in[i] = 13
		}
	}
	return in
}

// kpVerify replays the committed results against the oracle.
func kpVerify(t *testing.T, tc kpTech, o *kpOracle, results []lifecycle.Result, errs []error, inputs []uint32, tag string) {
	t.Helper()
	lastVer := uint64(0)
	for i, res := range results {
		if res.Version < lastVer {
			t.Fatalf("%s: invocation %d served by v%d after v%d — version sequence not monotone",
				tag, i, res.Version, lastVer)
		}
		lastVer = res.Version
		want := o.outcome(t, tc, int(res.Version), inputs[i])
		if errs[i] != nil {
			var tr *mem.Trap
			if !errors.As(errs[i], &tr) {
				t.Fatalf("%s: invocation %d: non-trap error %v", tag, i, errs[i])
			}
			if tr.Kind != want.trap {
				t.Fatalf("%s: invocation %d (x=%d, v%d): trap %v, oracle %v",
					tag, i, inputs[i], res.Version, tr.Kind, want.trap)
			}
		} else {
			if want.trap != mem.TrapNone {
				t.Fatalf("%s: invocation %d (x=%d, v%d): no trap, oracle traps %v",
					tag, i, inputs[i], res.Version, want.trap)
			}
			if res.Value != want.val {
				t.Fatalf("%s: invocation %d (x=%d, v%d): value %d, oracle %d — executed against a torn policy?",
					tag, i, inputs[i], res.Version, res.Value, want.val)
			}
		}
		if res.Fuel != want.fuel {
			t.Fatalf("%s: invocation %d (x=%d, v%d): fuel %d, oracle %d",
				tag, i, inputs[i], res.Version, res.Fuel, want.fuel)
		}
	}
}

// kpLedger checks conservation after a quiesced run.
func kpLedger(t *testing.T, s *lifecycle.Slot, issued int, tag string) {
	t.Helper()
	a := s.Accounting()
	if a.Issued != uint64(issued) || a.Aborted != 0 {
		t.Fatalf("%s: ledger %+v, want %d issued / 0 aborted", tag, a, issued)
	}
	if a.Committed != a.Issued {
		t.Fatalf("%s: %d issued but %d committed — an invocation was lost or duplicated (%+v)",
			tag, a.Issued, a.Committed, a)
	}
	var perVersion uint64
	for _, v := range s.Versions() {
		perVersion += v.Invocations()
	}
	if perVersion != a.Committed {
		t.Fatalf("%s: per-version invocations sum to %d, ledger committed %d", tag, perVersion, a.Committed)
	}
}

// runKillPointInline drives one stream with a Promote committed inline
// at the killStep-th data-plane gate crossing (or after the stream, if
// the step lies beyond it).
func runKillPointInline(t *testing.T, tc kpTech, o *kpOracle, load lifecycle.LoadFunc, rng *rand.Rand, killStep int, tag string) {
	t.Helper()
	s := lifecycle.NewSlot("decide", tc.id, load)
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Stage(tech.NewArtifact(decideSrc(2), 2), nil, 0); err != nil {
		t.Fatal(err)
	}
	step := 0
	inPromote := false
	swapped := false
	s.SetGate(func(p lifecycle.Point) error {
		if inPromote {
			return nil // Promote's own gate points re-enter here
		}
		if !swapped && step == killStep {
			inPromote = true
			swapped = true
			if err := s.Promote(); err != nil {
				t.Errorf("%s: inline promote at %s: %v", tag, p, err)
			}
			inPromote = false
		}
		step++
		return nil
	})
	inputs := kpInputs(rng)
	results := make([]lifecycle.Result, len(inputs))
	errs := make([]error, len(inputs))
	for i, x := range inputs {
		results[i], errs[i] = s.Invoke("decide", x)
	}
	s.SetGate(nil)
	if !swapped {
		if err := s.Promote(); err != nil {
			t.Fatalf("%s: trailing promote: %v", tag, err)
		}
	}
	if s.Incumbent().Artifact.Version != 2 || s.Candidate() != nil {
		t.Fatalf("%s: slot did not converge on v2", tag)
	}
	kpVerify(t, tc, o, results, errs, inputs, tag)
	kpLedger(t, s, len(inputs), tag)
}

// errKilled is the injected control-plane crash.
var errKilled = errors.New("killed at gate")

// runKillPointSwapAbort aborts the Promote critical section at one of
// its own gate points, mid-stream. The invariant is all-or-nothing: an
// abort before the commit point leaves the slot routing v1 with the
// candidate intact and a retried Promote succeeding; an abort after it
// leaves the swap fully visible. Either way the surrounding stream's
// results stay oracle-exact.
func runKillPointSwapAbort(t *testing.T, tc kpTech, o *kpOracle, load lifecycle.LoadFunc, rng *rand.Rand, killPoint lifecycle.Point, tag string) {
	t.Helper()
	s := lifecycle.NewSlot("decide", tc.id, load)
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Stage(tech.NewArtifact(decideSrc(2), 2), nil, 0); err != nil {
		t.Fatal(err)
	}
	inputs := kpInputs(rng)
	results := make([]lifecycle.Result, 0, len(inputs))
	errs := make([]error, 0, len(inputs))
	half := len(inputs) / 2
	for _, x := range inputs[:half] {
		res, err := s.Invoke("decide", x)
		results, errs = append(results, res), append(errs, err)
	}

	epochBefore := s.Epoch()
	s.SetGate(func(p lifecycle.Point) error {
		if p == killPoint {
			return errKilled
		}
		return nil
	})
	err := s.Promote()
	s.SetGate(nil)
	if !errors.Is(err, errKilled) {
		t.Fatalf("%s: killed promote returned %v", tag, err)
	}
	committed := s.Epoch() != epochBefore
	switch killPoint {
	case lifecycle.PointSwapBegin, lifecycle.PointSwapPrepared:
		if committed {
			t.Fatalf("%s: abort at %s leaked a committed swap", tag, killPoint)
		}
		if s.Incumbent().Artifact.Version != 1 || s.Candidate() == nil {
			t.Fatalf("%s: abort at %s tore the live set", tag, killPoint)
		}
	case lifecycle.PointSwapCommitted, lifecycle.PointSwapRetired:
		if !committed {
			t.Fatalf("%s: abort at %s lost a committed swap", tag, killPoint)
		}
		if s.Incumbent().Artifact.Version != 2 || s.Candidate() != nil {
			t.Fatalf("%s: post-commit abort at %s left torn routing", tag, killPoint)
		}
	}

	for _, x := range inputs[half:] {
		res, err := s.Invoke("decide", x)
		results, errs = append(results, res), append(errs, err)
	}
	if !committed {
		// The crash landed before the commit point; the retried swap must
		// succeed as if the first attempt never happened.
		if err := s.Promote(); err != nil {
			t.Fatalf("%s: retried promote after pre-commit abort: %v", tag, err)
		}
	}
	if s.Incumbent().Artifact.Version != 2 {
		t.Fatalf("%s: slot did not converge on v2", tag)
	}
	kpVerify(t, tc, o, results, errs, inputs, tag)
	kpLedger(t, s, len(inputs), tag)
}

// TestSwapAtomicityKillPoints sweeps ~1000 kill points across the swap
// critical section — both VM tiers, the AOT tier, and a compiled-native
// tier — checking every committed invocation against a swap-free
// oracle. See the file comment for the pinned invariants.
func TestSwapAtomicityKillPoints(t *testing.T) {
	perTech := 250
	if testing.Short() {
		perTech = 15
	}
	swapPoints := []lifecycle.Point{
		lifecycle.PointSwapBegin, lifecycle.PointSwapPrepared,
		lifecycle.PointSwapCommitted, lifecycle.PointSwapRetired,
	}
	o := newKPOracle()
	for _, tc := range kpTechs() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			load := kpCarriers(t, o, tc)
			rng := rand.New(rand.NewSource(int64(len(tc.name)) * 7919))
			// A stream crosses ~3 gate points per invocation plus the
			// control points; drawing past the end exercises the
			// swap-after-stream path too.
			maxStep := len(kpInputs(rand.New(rand.NewSource(0))))*3 + 8
			for i := 0; i < perTech; i++ {
				if i%2 == 0 {
					killStep := rng.Intn(maxStep)
					tag := fmt.Sprintf("%s/inline/%d@step%d", tc.name, i, killStep)
					runKillPointInline(t, tc, o, load, rng, killStep, tag)
				} else {
					kp := swapPoints[rng.Intn(len(swapPoints))]
					tag := fmt.Sprintf("%s/abort/%d@%s", tc.name, i, kp)
					runKillPointSwapAbort(t, tc, o, load, rng, kp, tag)
				}
			}
		})
	}
}
