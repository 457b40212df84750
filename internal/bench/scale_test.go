package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestConcurrentRunScale runs E7 end to end at a tiny scale with no
// simulated device wait, so every pooled engine is driven from up to
// four workers back to back (under -race in `make stress`). Correctness
// rests on each binder's own oracle — evict must return 100, every
// packet batch must match the reference filter's frame count, and MD5
// and LD map calls must not trap — which fail the run through
// RunScale's error. No timing ratio is asserted.
func TestConcurrentRunScale(t *testing.T) {
	cfg := tiny()
	cfg.ScaleOps = 16
	cfg.ScaleServiceTime = 0
	cells, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := indexCells(cells)
	lines, workers := pivot(cells, "ops_per_sec", " ")
	if len(lines) != 24 {
		t.Fatalf("lines = %d, want 24 (4 workloads x 6 technologies)", len(lines))
	}
	if want := scaleWorkerCounts(); len(workers) != len(want) {
		t.Fatalf("worker columns %v, want %v", workers, want)
	}
	seen := map[string]bool{}
	for _, key := range lines {
		if seen[key] {
			t.Errorf("%s: duplicate row", key)
		}
		seen[key] = true
		if x.v(key, "instances") < 1 {
			t.Errorf("%s: %v pool instances created", key, x.v(key, "instances"))
		}
		per := x.v(key, "ops_per_worker")
		for i, n := range scaleWorkerCounts() {
			row := fmt.Sprintf("%s w=%d", key, n)
			if workers[i] != fmt.Sprintf("w=%d", n) || x.v(row, "ops") != float64(n)*per {
				t.Errorf("%s: column %q ops %v, want w=%d and %v", row, workers[i], x.v(row, "ops"), n, float64(n)*per)
			}
		}
	}
	if !strings.Contains(scaleTable(cells).String(), "Table 7") {
		t.Error("table title missing")
	}
}
