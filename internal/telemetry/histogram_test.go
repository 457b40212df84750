package telemetry

import (
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram: count %d mean %v max %v", h.Count(), h.Mean(), h.Max())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Record(300 * time.Nanosecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	// Every quantile of a one-sample distribution is that sample's
	// bucket; the estimate must land in [256ns, 300ns] (clamped to max).
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 256*time.Nanosecond || got > 300*time.Nanosecond {
			t.Errorf("Quantile(%v) = %v, want within [256ns, 300ns]", q, got)
		}
	}
	if h.Max() != 300*time.Nanosecond {
		t.Errorf("Max = %v", h.Max())
	}
}

func TestHistogramAllZeroBucket(t *testing.T) {
	// Zero-length samples land in bucket 0, whose lower bound is 0 and
	// whose width is zero — quantiles must not fabricate latency.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(0)
	}
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("all-zero Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Mean() != 0 || h.Max() != 0 {
		t.Errorf("mean %v max %v, want 0", h.Mean(), h.Max())
	}
	// Negative durations clamp into bucket 0 too.
	h.Record(-time.Second)
	if got := h.Quantile(1); got != 0 {
		t.Errorf("after negative sample Quantile(1) = %v, want 0", got)
	}
}

func TestHistogramMergeQuantiles(t *testing.T) {
	// Two shard-local histograms with disjoint ranges: fast samples in
	// one, a slow tail in the other. The merged view must rank across
	// both populations.
	var fast, slow, merged Histogram
	for i := 0; i < 90; i++ {
		fast.Record(100 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		slow.Record(40 * time.Microsecond)
	}
	merged.Merge(&fast)
	merged.Merge(&slow)

	if merged.Count() != 100 {
		t.Fatalf("merged count = %d, want 100", merged.Count())
	}
	if got := merged.Max(); got != 40*time.Microsecond {
		t.Errorf("merged max = %v, want 40µs", got)
	}
	// p50 comes from the fast population (same power-of-two bucket as
	// 100ns), p99 from the slow tail.
	if got := merged.Quantile(0.5); got < 64*time.Nanosecond || got > 128*time.Nanosecond {
		t.Errorf("merged p50 = %v, want within fast bucket [64ns,128ns]", got)
	}
	if got := merged.Quantile(0.99); got < 32*time.Microsecond || got > 40*time.Microsecond {
		t.Errorf("merged p99 = %v, want within slow bucket", got)
	}
	wantMean := (90*100*time.Nanosecond + 10*40*time.Microsecond) / 100
	if got := merged.Mean(); got != wantMean {
		t.Errorf("merged mean = %v, want %v", got, wantMean)
	}

	// Merge is exact bucket by bucket on overlapping populations (a
	// multiplicative walk mod a prime), as the window ring's snapshot
	// relies on.
	gen := func(seed, n int) []time.Duration {
		out := make([]time.Duration, n)
		x := seed
		for i := range out {
			x = (x*48271 + 13) % 99991
			out[i] = time.Duration(x) * time.Nanosecond
		}
		return out
	}
	var a, b, ab Histogram
	for _, d := range gen(7, 500) {
		a.Record(d)
	}
	for _, d := range gen(1234, 300) {
		b.Record(d)
	}
	ab.Merge(&a)
	ab.Merge(&b)
	if ab.Count() != a.Count()+b.Count() || ab.sum.Load() != a.sum.Load()+b.sum.Load() {
		t.Errorf("merge count %d sum %d, want %d and %d",
			ab.Count(), ab.sum.Load(), a.Count()+b.Count(), a.sum.Load()+b.sum.Load())
	}
	for i := 0; i < numBuckets; i++ {
		if got, want := ab.buckets[i].Load(), a.buckets[i].Load()+b.buckets[i].Load(); got != want {
			t.Errorf("merged bucket %d = %d, want %d", i, got, want)
		}
	}

	// Merging nil or self must be a no-op.
	before := merged.Count()
	merged.Merge(nil)
	merged.Merge(&merged)
	if merged.Count() != before {
		t.Errorf("nil/self merge changed count: %d -> %d", before, merged.Count())
	}
}

// TestHistogramQuantileClampsToMax pins the interpolation clamp: when
// the rank lands in the histogram's top bucket, linear interpolation
// inside the power-of-two range could fabricate a value up to 2x the
// largest sample ever recorded. The estimate must never exceed Max().
func TestHistogramQuantileClampsToMax(t *testing.T) {
	var h Histogram
	// 1025ns lands in bucket 11 ([1024ns, 2048ns)); a high quantile
	// interpolates toward the top of that bucket — far past the true
	// maximum — unless clamped.
	for i := 0; i < 1000; i++ {
		h.Record(1025 * time.Nanosecond)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999, 1} {
		if got := h.Quantile(q); got > h.Max() {
			t.Errorf("Quantile(%v) = %v exceeds Max() = %v", q, got, h.Max())
		}
	}
	if h.Quantile(1) != 1025*time.Nanosecond {
		t.Errorf("Quantile(1) = %v, want exactly the max 1025ns", h.Quantile(1))
	}

	// The clamp also holds when samples span buckets: the top bucket's
	// interpolation is bounded by the bucket's own max-so-far.
	h.Record(3 * time.Microsecond)
	if got := h.Quantile(0.9999); got > 3*time.Microsecond {
		t.Errorf("tail Quantile = %v exceeds max 3µs", got)
	}

	// Out-of-range q values clamp to [0,1] instead of panicking.
	if h.Quantile(-1) > h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("out-of-range quantiles not clamped")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Record(time.Duration(i+1) * time.Microsecond)
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 || h.sum.Load() != 0 {
		t.Errorf("reset left residue: count %d max %v sum %d", h.Count(), h.Max(), h.sum.Load())
	}
	for i := 0; i < numBuckets; i++ {
		if n := h.buckets[i].Load(); n != 0 {
			t.Errorf("reset left bucket %d = %d", i, n)
		}
	}
}

func TestHistogramStd(t *testing.T) {
	var h Histogram
	if h.Std() != 0 {
		t.Errorf("empty Std = %v, want 0", h.Std())
	}
	h.Record(300 * time.Nanosecond)
	if h.Std() != 0 {
		t.Errorf("single-sample Std = %v, want 0", h.Std())
	}

	// A tight distribution must read far narrower than a spread one;
	// both estimates are bucket-midpoint coarse, so only the ordering
	// and rough magnitude are contractual.
	var tight, wide Histogram
	for i := 0; i < 64; i++ {
		tight.Record(500 * time.Nanosecond)
		if i%2 == 0 {
			wide.Record(100 * time.Nanosecond)
		} else {
			wide.Record(100 * time.Microsecond)
		}
	}
	ts, ws := tight.Std(), wide.Std()
	if ws <= ts {
		t.Errorf("wide Std %v <= tight Std %v", ws, ts)
	}
	// The wide split is ~±50µs around its mean; the log2 buckets keep
	// the estimate within 2x of that.
	if ws < 25*time.Microsecond || ws > 100*time.Microsecond {
		t.Errorf("wide Std = %v, want on the order of 50µs", ws)
	}
}
