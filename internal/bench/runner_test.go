package bench

import (
	"errors"
	"testing"
	"time"
)

// coldRun is how long a fake arm's cold runs take.
const coldRun = 10 * time.Millisecond

// fakeArm is an arm that logs its name on every run, fails each run with
// err, and is slow for exactly its first cold runs (cache fills,
// frequency ramp) and instant after; if a cold run leaked into a
// summary, Max would betray it.
func fakeArm(name string, log *[]string, cold int, err error) arm {
	calls := 0
	return arm{s: Scenario{Run: func(n int) error {
		*log = append(*log, name)
		if calls++; calls <= cold {
			time.Sleep(coldRun)
		}
		return err
	}}, n: 1, per: 1}
}

// TestMeasureSeriesExcludesWarmup pins the suite's core statistical
// contract: warmup rounds execute but never reach an exported Sample,
// for one arm and for two.
func TestMeasureSeriesExcludesWarmup(t *testing.T) {
	const warmup, runs = 3, 5
	for _, names := range [][]string{{"a"}, {"a", "b"}} {
		var log []string
		var arms []arm
		for _, name := range names {
			arms = append(arms, fakeArm(name, &log, warmup, nil))
		}
		ss, err := measureSeries(warmup, runs, arms...)
		if err != nil {
			t.Fatal(err)
		}
		if len(log) != len(arms)*(warmup+runs) {
			t.Fatalf("%d arms: %d runs, want %d", len(arms), len(log), len(arms)*(warmup+runs))
		}
		for i, s := range ss {
			if s.N != runs || s.Max >= coldRun {
				t.Errorf("%d arms: arm %d summarized a warmup run: %+v", len(arms), i, s)
			}
		}
	}

	// Two arms: each round runs both, and each leads in half of the
	// measured rounds, give or take one.
	var log []string
	if _, err := measureSeries(warmup, runs, fakeArm("a", &log, 0, nil), fakeArm("b", &log, 0, nil)); err != nil {
		t.Fatal(err)
	}
	first := map[string]int{}
	for r := warmup; r < warmup+runs; r++ {
		if log[2*r] == log[2*r+1] {
			t.Fatalf("round %d ran %v", r, log[2*r:2*r+2])
		}
		first[log[2*r]]++
	}
	for _, name := range []string{"a", "b"} {
		if d := 2*first[name] - runs; d < -1 || d > 1 {
			t.Errorf("arm %s ran first in %d of %d measured rounds", name, first[name], runs)
		}
	}

	// An error from either arm ends the series and is returned.
	boom := errors.New("boom")
	for failing := range 2 {
		var log []string
		arms := []arm{fakeArm("a", &log, 0, nil), fakeArm("b", &log, 0, nil)}
		arms[failing] = fakeArm("bad", &log, 0, boom)
		if _, err := measureSeries(warmup, runs, arms...); !errors.Is(err, boom) {
			t.Errorf("arm %d failing: err = %v, want %v", failing, err, boom)
		}
		if len(log) > 2 || log[len(log)-1] != "bad" {
			t.Errorf("arm %d failing: the series went on after the error: %v", failing, log)
		}
	}
}

func TestMeasureSeriesNegativeWarmupClamped(t *testing.T) {
	var log []string
	ss, err := measureSeries(-2, 3, fakeArm("a", &log, 0, nil))
	if err != nil || ss[0].N != 3 || len(log) != 3 {
		t.Fatalf("ss=%+v log=%v err=%v", ss, log, err)
	}
}

// TestRowsExcludeWarmupRuns drives a real experiment and checks that the
// per-row N is the measurement count, not warmup+measurement: the
// whole-suite restatement of the contract above.
func TestRowsExcludeWarmupRuns(t *testing.T) {
	cfg := tiny()
	cfg.WarmupRuns = 2
	cells, err := RunMD5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Metric == "total_ns" && (c.N <= 0 || c.N > cfg.Runs) {
			t.Errorf("%s: N = %d, want 1..%d (warmup excluded)", c.Row, c.N, cfg.Runs)
		}
	}
}

func TestEffectiveWarmupDefaults(t *testing.T) {
	if got := Default().EffectiveWarmup(); got < 3 {
		t.Errorf("paper-scale warmup = %d, want >= 3", got)
	}
	if got := Quick().EffectiveWarmup(); got < 1 {
		t.Errorf("quick-scale warmup = %d, want >= 1", got)
	}
	var zero Config
	if got := zero.EffectiveWarmup(); got < 1 {
		t.Errorf("zero-value warmup = %d, want >= 1", got)
	}
}

// TestExperimentMatrix pins the declarative matrix: every selector the
// CLI documents resolves, "scale" is the only concurrent experiment, the
// gated experiments are the ones the committed baselines gate, and an
// unknown name errors.
func TestExperimentMatrix(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "table5",
		"table6", "figure1", "pktfilter", "pktfilter-batch", "swap-under-load",
		"ablation", "scale"}
	gated := map[string]string{"table2": "per_eviction_ns", "table5": "total_ns", "table6": "total_ns",
		"pktfilter": "per_packet_ns", "pktfilter-batch": "per_packet_ns", "swap-under-load": "per_op_ns",
		"scale": "ops_per_sec"}
	specs := Experiments()
	if len(specs) != len(want) {
		t.Fatalf("matrix has %d experiments, want %d", len(specs), len(want))
	}
	for i, name := range want {
		s := specs[i]
		if s.Name != name {
			t.Errorf("matrix[%d] = %q, want %q", i, s.Name, name)
		}
		if s.Concurrent != (name == "scale") {
			t.Errorf("%s: Concurrent = %v", name, s.Concurrent)
		}
		if s.Run == nil || s.Render == nil || s.Title == "" {
			t.Errorf("%s: incomplete spec", name)
		}
		if metric := gated[name]; (s.Gate == nil) != (metric == "") || s.Gate != nil && s.Gate.Metric != metric {
			t.Errorf("%s: gate %+v, want metric %q", name, s.Gate, metric)
		}
	}
	if _, err := FindExperiment("table5"); err != nil {
		t.Error(err)
	}
	if _, err := FindExperiment("table99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestExperimentSpecRoundTrip runs one spec through Run+Render: every
// cell carries the spec's name, and the table lays out one line per row.
func TestExperimentSpecRoundTrip(t *testing.T) {
	spec, err := FindExperiment("table5")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Run(tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Experiment != spec.Name {
			t.Fatalf("cell of %q from the %s spec: %+v", c.Experiment, spec.Name, c)
		}
	}
	if rows, tbl := rowsWith(cells, "total_ns"), spec.Render(cells); len(tbl.Rows) != len(rows) || len(rows) == 0 {
		t.Errorf("table has %d lines for %d rows", len(tbl.Rows), len(rows))
	}
}
