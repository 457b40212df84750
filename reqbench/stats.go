package main

import (
	"sort"

	"graftlab/internal/workload"
)

// reservoir keeps a uniform random sample of at most cap(vals) request
// latencies (ns), so percentiles come from exact measured values in
// memory fixed before the run starts.
type reservoir struct {
	vals []int64
	seen uint64
	rng  uint64
}

func newReservoir(n int, seed uint64) *reservoir {
	return &reservoir{vals: make([]int64, 0, n), rng: seed | 1}
}

func (r *reservoir) add(v int64) {
	r.seen++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, v)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % r.seen; j < uint64(len(r.vals)) {
		r.vals[j] = v
	}
}

// quantile returns the q-quantile of vals, interpolating linearly
// between the two closest ranks (0 for no values). It sorts vals.
func quantile(vals []int64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	if lo+1 >= len(vals) {
		return float64(vals[lo])
	}
	return float64(vals[lo]) + (pos-float64(lo))*float64(vals[lo+1]-vals[lo])
}

// quantileF returns the q-quantile of xs, interpolating linearly between
// the two closest ranks (0 for no values).
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rounds draws the tenant of each request in seeded rounds: a round
// serves every tenant once, in a shuffled order. Every class gets the
// same share of the requests on every seed; the interleaving varies.
type rounds struct {
	rng   *workload.RNG
	order []int
	next  int
}

func newRounds(n int, seed uint64) *rounds {
	r := &rounds{rng: workload.NewRNG(seed), order: make([]int, n), next: n}
	for i := range r.order {
		r.order[i] = i
	}
	return r
}

func (r *rounds) pick() int {
	if r.next == len(r.order) {
		for i := len(r.order) - 1; i > 0; i-- {
			j := int(r.rng.Uint32n(uint32(i + 1)))
			r.order[i], r.order[j] = r.order[j], r.order[i]
		}
		r.next = 0
	}
	t := r.order[r.next]
	r.next++
	return t
}
