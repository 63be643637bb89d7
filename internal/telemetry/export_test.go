package telemetry

import "math"

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket
// counts: the bucket holding the target rank bounds the true value, and
// the estimate interpolates linearly within it. The error is therefore
// bounded by the bucket width — with DefaultLatencyBuckets' factor-2
// layout, at most 2x — which the property test pins. Returns NaN when empty; the
// +Inf bucket reports its lower bound (the last finite bound).
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || q <= 0 || q > 1 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		if cum+c < rank {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		if i == len(h.Bounds) { // +Inf bucket: no upper bound to interpolate to
			return lo
		}
		hi := h.Bounds[i]
		return lo + (hi-lo)*(float64(rank-cum)/float64(c))
	}
	return h.Bounds[len(h.Bounds)-1] // unreachable: rank <= total
}
