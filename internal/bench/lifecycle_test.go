package bench

import (
	"testing"
)

func TestRunSwapUnderLoadShape(t *testing.T) {
	cells, err := RunSwapUnderLoad(tiny())
	if err != nil {
		t.Fatal(err)
	}
	x := indexCells(cells)
	if ops := x.v("", "ops"); ops < 200 || x.v("", "swap_every") != swapEvery {
		t.Fatalf("ops=%v swap_every=%v", ops, x.v("", "swap_every"))
	}
	lines, modes := pivot(cells, "per_op_ns", "/")
	if len(lines) != len(swapTechs) {
		t.Fatalf("lines = %d, want %d", len(lines), len(swapTechs))
	}
	want := []string{"direct", "slot", "slot-swap"}
	if len(modes) != len(want) {
		t.Fatalf("modes = %v, want %v", modes, want)
	}
	for i, m := range want {
		if modes[i] != m {
			t.Fatalf("mode %d = %q, want %q", i, modes[i], m)
		}
	}
	for _, id := range lines {
		for _, mode := range modes {
			row := id + "/" + mode
			if x.v(row, "per_op_ns") <= 0 {
				t.Fatalf("%s: per-op %v", row, x.v(row, "per_op_ns"))
			}
			if x.v(row, "overhead") <= 0 {
				t.Fatalf("%s: overhead %v", row, x.v(row, "overhead"))
			}
		}
		if o := x.v(id+"/direct", "overhead"); o != 1 {
			t.Fatalf("%s: direct overhead %v, want 1", id, o)
		}
		if x.v(id+"/slot-swap", "swaps") == 0 {
			t.Fatalf("%s: slot-swap mode executed no swaps", id)
		}
	}
	if len(swapTable(cells).Rows) != len(swapTechs) {
		t.Fatal("table lines missing")
	}

	// The experiment gates itself cleanly, one cell per (technology, mode).
	r := &Report{Cells: cells}
	cmp := CompareReports(r, r, CompareOptions{Tolerance: 0.45})
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
	if cmp.Compared() != len(swapTechs)*len(want) {
		t.Fatalf("gated %d cells, want %d", cmp.Compared(), len(swapTechs)*len(want))
	}
}
