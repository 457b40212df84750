package conformance

import (
	"flag"
	"testing"

	"graftlab/internal/tech"
)

// requiredEngines is the contract for the general-purpose matrix: the
// five runtime-codegen policies, both bytecode engines, the AOT translation,
// the script interpreter, and the upcall wrapper. Removing a row from
// engineMatrix fails here before anything else runs.
var requiredEngines = []string{
	"native-unsafe", "native-safe", "native-safe-nil", "sfi", "sfi-full",
	"bytecode-opt", "bytecode-baseline", "aot", "script", "upcall",
}

// requiredFaultClasses is the contract for the fault-injection half:
// every failure path the harness claims to cover must actually have run.
var requiredFaultClasses = []string{
	"mem-scheduler", "fuel-cliff", "upcall-delivery",
	"disk-torn-write", "disk-short-write", "runaway-watchdog",
	"lifecycle-killpoint",
}

// requiredGraftCells lists the grafts whose conformance scenario must
// run under *every* technology class in tech.All, cell by cell. The
// packet filter is the fourth graft column: both its single-frame entry
// and the batched slot protocol are pinned across the whole registry, so
// a class that silently stops carrying the filter fails here. The
// lifecycle-swap cell is the filter hot-swapped through the versioned
// deployment protocol: losing the kill-point sweep loses the cell.
var requiredGraftCells = []string{"pktfilter", "pktfilter-batch", "lifecycle-swap"}

// TestZZZCoverageGate is the anti-rot gate, named to sort last in the
// package (go test runs tests in file order). It has a static half —
// the matrices must span the registry — and a dynamic half — the suite
// that just ran must actually have exercised every engine, every fault
// class, and every technology in tech.All. Skipping an engine, losing a
// fault-injection test, or adding a technology to the registry without
// teaching the harness about it all fail here, loudly, instead of
// silently shrinking coverage.
func TestZZZCoverageGate(t *testing.T) {
	// Static: every required engine has a matrix row, and every row is
	// required (no dead rows either).
	rows := map[string]bool{}
	for _, e := range engineMatrix {
		rows[e.name] = true
	}
	for _, name := range requiredEngines {
		if !rows[name] {
			t.Errorf("engineMatrix lost required engine %q", name)
		}
	}
	if len(engineMatrix) != len(requiredEngines) {
		t.Errorf("engineMatrix has %d rows, contract lists %d — update both together", len(engineMatrix), len(requiredEngines))
	}

	// Static: the graft matrix spans the live registry.
	carrierIDs := map[tech.ID]bool{}
	for _, c := range graftCarriers() {
		if !c.wrap {
			carrierIDs[c.id] = true
		}
	}
	for _, id := range tech.All {
		if !carrierIDs[id] {
			t.Errorf("graft matrix has no carrier column for registry technology %q", id)
		}
	}

	// Static: every contract graft has a scenario, and every carrier in
	// the matrix can carry it — the packet filter's representations span
	// the registry, so a missing cell is a lost representation, not an
	// expected refusal.
	scenarios := map[string]graftScenario{}
	for _, sc := range graftScenarios() {
		scenarios[sc.src.Name] = sc
	}
	// The lifecycle cell lives outside graftScenarios(): its only runner
	// is the kill-point sweep, so the dynamic half below fails if that
	// sweep is deleted rather than letting the cell quietly vanish.
	scenarios["lifecycle-swap"] = lifecycleSwapScenario()
	for _, name := range requiredGraftCells {
		sc, ok := scenarios[name]
		if !ok {
			t.Errorf("graft matrix lost required scenario %q", name)
			continue
		}
		entries := make([]string, 0, len(sc.steps))
		for _, s := range sc.steps {
			entries = append(entries, s.entry)
		}
		for _, id := range tech.All {
			if !carries(id, sc.src, entries) {
				t.Errorf("registry technology %q no longer carries graft %q", id, name)
			}
		}
	}

	// Dynamic: only meaningful when the whole suite ran in this process.
	if f := flag.Lookup("test.run"); f != nil && f.Value.String() != "" {
		t.Skipf("dynamic gate skipped under -run=%q (partial suite)", f.Value.String())
	}
	coverMu.Lock()
	defer coverMu.Unlock()
	for _, name := range requiredEngines {
		if !engineRuns[name] {
			t.Errorf("engine %q was never exercised by the oracle this run", name)
		}
	}
	for _, class := range requiredFaultClasses {
		if !faultClassRuns[class] {
			t.Errorf("fault-injection class %q never ran", class)
		}
	}
	for _, id := range tech.All {
		if !graftTechRuns[id] {
			t.Errorf("technology %q never carried a graft through the conformance matrix this run", id)
		}
	}
	for _, name := range requiredGraftCells {
		for _, id := range tech.All {
			if !graftCellRuns[name][id] {
				t.Errorf("graft %q never ran under technology %q this run", name, id)
			}
		}
	}
}
