package bench

import (
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
	res, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 24 {
		t.Fatalf("rows = %d, want 24 (4 workloads x 6 technologies)", len(res.Rows))
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		key := row.Workload + "/" + row.Tech
		if seen[key] {
			t.Errorf("%s: duplicate row", key)
		}
		seen[key] = true
		if row.Instances < 1 {
			t.Errorf("%s: %d pool instances created", key, row.Instances)
		}
		if len(row.Cells) != len(res.WorkerCounts) {
			t.Fatalf("%s: %d cells for %d worker counts", key, len(row.Cells), len(res.WorkerCounts))
		}
		for i, c := range row.Cells {
			if c.Workers != res.WorkerCounts[i] || c.Ops != c.Workers*row.OpsPerWorker {
				t.Errorf("%s cell %d: workers %d ops %d, want %d and %d",
					key, i, c.Workers, c.Ops, res.WorkerCounts[i], res.WorkerCounts[i]*row.OpsPerWorker)
			}
		}
	}
	if !strings.Contains(res.Table().String(), "Table 7") {
		t.Error("table title missing")
	}
}
