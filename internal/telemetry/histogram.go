package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers the full uint64 nanosecond range: bucket i holds
// durations whose nanosecond count has bit length i, i.e. [2^(i-1), 2^i).
// Bucket 0 holds zero-length samples.
const numBuckets = 64

// Histogram is a log2-bucketed latency histogram. Recording is one
// atomic add per sample (plus a CAS loop for a new maximum, which is
// rare once warm), so it is cheap enough to live on invocation paths.
// Quantiles interpolate linearly inside the matched power-of-two bucket,
// giving tail estimates within ~2x worst case and far better in
// practice, which is what a "did p99 blow up" view needs.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))%numBuckets].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Count reports how many samples were recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max reports the largest recorded sample.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean reports the arithmetic mean of all samples.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Std estimates the sample standard deviation from the bucket counts:
// each bucket contributes its midpoint, deviations are taken against
// the exact mean (the sum is tracked exactly). Within-bucket spread is
// lost to the log2 quantization, so the estimate is coarse the same way
// Quantile is — good enough for "is the canary's latency distribution
// significantly wider/slower" effect-size tests, not for metrology.
// Zero with fewer than two samples.
func (h *Histogram) Std() time.Duration {
	n := h.count.Load()
	if n < 2 {
		return 0
	}
	mean := float64(h.sum.Load()) / float64(n)
	var ss float64
	for i := 0; i < numBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 && i < 63 {
			lo = int64(1) << (i - 1)
		}
		hi := lo
		if i > 0 && i < 63 {
			hi = int64(1) << i
		}
		mid := float64(lo+hi) / 2
		d := mid - mean
		ss += float64(c) * d * d
	}
	v := ss / float64(n-1)
	if v <= 0 {
		return 0
	}
	return time.Duration(int64(math.Sqrt(v)))
}

// Merge folds other's samples into h — the snapshot-combining path for
// views that aggregate one graft across shards or pool workers. Both
// histograms may be live; each bucket transfers atomically, so the
// merged result is a consistent-enough union for quantile reads (exact
// when other is quiescent).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other == h {
		return
	}
	for i := 0; i < numBuckets; i++ {
		if n := other.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	om := other.max.Load()
	for {
		old := h.max.Load()
		if om <= old || h.max.CompareAndSwap(old, om) {
			break
		}
	}
}

// Reset zeroes every bucket and statistic. Only safe when no writer is
// mid-Record — the window plane calls it inside the rotation CAS, where
// concurrent writers are parked on the resetting sentinel.
func (h *Histogram) Reset() {
	for i := 0; i < numBuckets; i++ {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Quantile estimates the q-th quantile (q in [0,1]) by nearest rank over
// the buckets with linear interpolation inside the matched bucket. The
// top estimate is clamped to the recorded maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n > rank {
			if i >= 63 {
				return h.Max() // 1<<63 overflows int64; nothing real lands here
			}
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << (i - 1)
			}
			hi := int64(1) << i
			// Position of the rank inside this bucket, in [0,1).
			frac := float64(rank-cum) / float64(n)
			v := lo + int64(frac*float64(hi-lo))
			if m := h.max.Load(); v > m {
				v = m
			}
			return time.Duration(v)
		}
		cum += n
	}
	return h.Max()
}
