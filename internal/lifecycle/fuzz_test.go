package lifecycle_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// FuzzSwap is the differential fuzzer for the swap protocol: a random
// schedule of invocations, stagings, promotions, and mid-invocation
// swaps must produce exactly the outcomes of the serialized schedule —
// each invocation behaving as a pure call of whichever version a
// sequential interpreter of the same ops would have live at that point.
// The model below IS that sequential interpreter; any divergence
// (value, trap kind, fuel, or the final conservation ledger) is a
// protocol bug.

// fuzzSrcCycle bounds the distinct programs; artifact versions keep
// increasing but map onto these sources cyclically.
const fuzzSrcCycle = 4

var (
	fuzzOnce    sync.Once
	fuzzErr     error
	fuzzGrafts  map[int]tech.Graft        // srcVer -> oracle engine
	fuzzCarrier map[int]lifecycle.Carrier // srcVer -> shared slot carrier
	fuzzOracle  map[string]kpOutcome      // srcVer/x -> outcome
	fuzzMu      sync.Mutex
)

func fuzzSrcVer(artifactVer uint64) int { return int((artifactVer-1)%fuzzSrcCycle) + 1 }

func fuzzSetup() error {
	fuzzOnce.Do(func() {
		fuzzGrafts = map[int]tech.Graft{}
		fuzzCarrier = map[int]lifecycle.Carrier{}
		fuzzOracle = map[string]kpOutcome{}
		opts := tech.Options{Fuel: 1 << 20}
		for v := 1; v <= fuzzSrcCycle; v++ {
			g, err := tech.Load(tech.Bytecode, decideSrc(v), mem.New(decideMemSize), opts)
			if err != nil {
				fuzzErr = err
				return
			}
			fuzzGrafts[v] = g
			c, err := tech.Load(tech.Bytecode, decideSrc(v), mem.New(decideMemSize), opts)
			if err != nil {
				fuzzErr = err
				return
			}
			fuzzCarrier[v] = lifecycle.Single(c)
		}
	})
	return fuzzErr
}

func fuzzOutcome(srcVer int, x uint32) (kpOutcome, error) {
	key := fmt.Sprintf("%d/%d", srcVer, x)
	fuzzMu.Lock()
	out, ok := fuzzOracle[key]
	fuzzMu.Unlock()
	if ok {
		return out, nil
	}
	g := fuzzGrafts[srcVer]
	val, fuel, err := tech.Resolve(g, "decide")(telemetry.SpanCtx{}, []uint32{x})
	out = kpOutcome{val: val, fuel: fuel}
	if err != nil {
		var tr *mem.Trap
		if !errors.As(err, &tr) {
			return out, fmt.Errorf("oracle v%d x=%d: %w", srcVer, x, err)
		}
		out.trap = tr.Kind
	}
	fuzzMu.Lock()
	fuzzOracle[key] = out
	fuzzMu.Unlock()
	return out, nil
}

func FuzzSwap(f *testing.F) {
	// Seeds cover every opcode, mid-invocation swaps back to back,
	// staging churn, and the poison (trapping) input.
	f.Add([]byte{0x10, 0x01, 0x02, 0x10})                         // invoke, stage, promote, invoke
	f.Add([]byte{0x01, 0x03, 0x03, 0x01, 0x03})                   // stage, swap-mid-invoke twice, restage
	f.Add([]byte{0x34, 0x00, 0x01, 0x02, 0x01, 0x02})             // poison invoke then two full cycles
	f.Add([]byte{0x01, 0x01, 0x02, 0x02, 0x00})                   // double stage, double promote
	f.Add([]byte{0x00, 0x04, 0x08, 0x0c, 0x10, 0x14, 0x18, 0x1c}) // pure invocation stream

	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := fuzzSetup(); err != nil {
			t.Fatal(err)
		}
		if len(ops) > 256 {
			ops = ops[:256]
		}
		load := func(a tech.Artifact) (lifecycle.Carrier, error) {
			return fuzzCarrier[fuzzSrcVer(a.Version)], nil
		}
		s := lifecycle.NewSlot("fuzz", tech.Bytecode, load)
		if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
			t.Fatal(err)
		}

		// The sequential model: which artifact version is live, which is
		// staged, and how many invocations have been issued.
		liveVer := uint64(1)
		stagedVer := uint64(0)
		nextVer := uint64(2)
		issued := 0

		checkInvoke := func(x uint32, wantVer uint64, res lifecycle.Result, err error) {
			t.Helper()
			issued++
			if res.Version != wantVer {
				t.Fatalf("op %d: served by v%d, model says v%d", issued, res.Version, wantVer)
			}
			want, oerr := fuzzOutcome(fuzzSrcVer(wantVer), x)
			if oerr != nil {
				t.Fatal(oerr)
			}
			if err != nil {
				var tr *mem.Trap
				if !errors.As(err, &tr) || tr.Kind != want.trap {
					t.Fatalf("x=%d v%d: err %v, oracle trap %v", x, wantVer, err, want.trap)
				}
			} else if want.trap != mem.TrapNone {
				t.Fatalf("x=%d v%d: succeeded, oracle traps %v", x, wantVer, want.trap)
			} else if res.Value != want.val {
				t.Fatalf("x=%d v%d: value %d, oracle %d", x, wantVer, res.Value, want.val)
			}
			if res.Fuel != want.fuel {
				t.Fatalf("x=%d v%d: fuel %d, oracle %d", x, wantVer, res.Fuel, want.fuel)
			}
		}

		for _, b := range ops {
			x := uint32(b>>2) % 20 // 13 stays reachable: traps cross swaps too
			switch b & 3 {
			case 0: // plain invoke
				res, err := s.Invoke("decide", x)
				checkInvoke(x, liveVer, res, err)
			case 1: // stage the next version (no-op if one is staged)
				if stagedVer != 0 {
					continue
				}
				v := nextVer
				nextVer++
				if err := s.Stage(tech.NewArtifact(decideSrc(fuzzSrcVer(v)), v), nil, 0); err != nil {
					t.Fatalf("stage v%d: %v", v, err)
				}
				stagedVer = v
			case 2: // promote (no-op if nothing staged)
				if stagedVer == 0 {
					if err := s.Promote(); !errors.Is(err, lifecycle.ErrNoCandidate) {
						t.Fatalf("promote without candidate: %v", err)
					}
					continue
				}
				if err := s.Promote(); err != nil {
					t.Fatalf("promote v%d: %v", stagedVer, err)
				}
				liveVer, stagedVer = stagedVer, 0
			case 3: // invoke with a swap committed mid-flight
				if stagedVer == 0 {
					res, err := s.Invoke("decide", x)
					checkInvoke(x, liveVer, res, err)
					continue
				}
				promoted := false
				inPromote := false
				s.SetGate(func(p lifecycle.Point) error {
					if inPromote {
						return nil
					}
					if p == lifecycle.PointInvoked && !promoted {
						promoted, inPromote = true, true
						if err := s.Promote(); err != nil {
							t.Errorf("mid-invoke promote: %v", err)
						}
						inPromote = false
					}
					return nil
				})
				res, err := s.Invoke("decide", x)
				s.SetGate(nil)
				// Serialized equivalent: the promote lands before the
				// invocation commits, so the new version serves it.
				liveVer, stagedVer = stagedVer, 0
				checkInvoke(x, liveVer, res, err)
				if res.Retries == 0 {
					t.Fatal("mid-invoke swap committed without a revalidation retry")
				}
			}
		}

		a := s.Accounting()
		if a.Issued != uint64(issued) || a.Committed != uint64(issued) || a.Aborted != 0 {
			t.Fatalf("ledger %+v, model issued %d", a, issued)
		}
		var perVersion uint64
		for _, v := range s.Versions() {
			perVersion += v.Invocations()
		}
		if perVersion != a.Committed {
			t.Fatalf("per-version sum %d != committed %d", perVersion, a.Committed)
		}
	})
}
