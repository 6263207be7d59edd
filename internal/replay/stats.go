package replay

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks (the median of an even count is the mean of the
// middle two); 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailPercentile picks the highest of p90, p95, p99 and p99.9 that still has
// at least ten samples beyond it; ok is false below a hundred samples, where
// not even p90 does.
func tailPercentile(n int) (p float64, ok bool) {
	for _, permille := range []int{999, 990, 950, 900} {
		if n*(1000-permille) >= 10*1000 {
			return float64(permille) / 1000, true
		}
	}
	return 0, false
}

// numSlices is how many equal slices a measured phase is cut into. A rate is
// the median slice rate, so one noisy-neighbour burst cannot move it.
const numSlices = 10

// sliceMedian cuts [lo, hi) into numSlices, adds each event's weight to the
// slice its time falls in, and returns the median slice total per second.
func sliceMedian(lo, hi int64, times []int64, weights []float64) float64 {
	width := float64(hi-lo) / numSlices
	var sums [numSlices]float64
	for i, t := range times {
		if t < lo || t >= hi {
			continue
		}
		sums[min(int(float64(t-lo)/width), numSlices-1)] += weights[i]
	}
	return median(sums[:]) / (width / 1e9)
}

// interval is a half-open span of tracer time.
type interval struct{ lo, hi int64 }

// union clips the intervals to within and merges them into a sorted,
// disjoint list.
func union(ivs []interval, within interval) []interval {
	var out []interval
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, within.lo), min(iv.hi, within.hi)
		if iv.lo < iv.hi {
			out = append(out, iv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	merged := out[:0]
	for _, iv := range out {
		if n := len(merged); n > 0 && iv.lo <= merged[n-1].hi {
			merged[n-1].hi = max(merged[n-1].hi, iv.hi)
		} else {
			merged = append(merged, iv)
		}
	}
	return merged
}

func totalLen(ivs []interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.hi - iv.lo
	}
	return n
}

// intersect returns the intersection of two sorted disjoint lists.
func intersect(a, b []interval) []interval {
	var out []interval
	for i, j := 0, 0; i < len(a) && j < len(b); {
		if lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi); lo < hi {
			out = append(out, interval{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// selfTimes splits one request's wall time among the four layers: each
// instant belongs to the deepest layer that has a span open (critical-path
// self time — a span's duration minus the union of its children). Parallel
// children count once, so the four always sum to the request's duration.
func selfTimes(httpSpan interval, s3gate, rpc, disk []interval) (httpSelf, s3Self, rpcSelf, diskSelf int64) {
	s := union(s3gate, httpSpan)
	r := intersect(union(rpc, httpSpan), s)
	d := intersect(union(disk, httpSpan), r)
	sLen, rLen, dLen := totalLen(s), totalLen(r), totalLen(d)
	return httpSpan.hi - httpSpan.lo - sLen, sLen - rLen, rLen - dLen, dLen
}
