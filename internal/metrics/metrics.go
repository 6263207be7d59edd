// Package metrics provides the small time-series and statistics substrate
// shared by the introspection layer, the self-* controllers and the cloud
// simulator: bounded time series, counters, gauges, EWMAs, histograms and
// percentile summaries.
//
// All timestamps are explicit (time.Time arguments) so the same code runs
// unchanged under real time and under the simulator's virtual clock.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Point is one sample in a time series.
type Point struct {
	Time  time.Time
	Value float64
}

// TimeSeries is a bounded, append-only series of samples. It is safe for
// concurrent use. When the bound is exceeded the oldest half is dropped,
// keeping appends amortized O(1).
type TimeSeries struct {
	mu    sync.Mutex
	max   int
	data  []Point
	total int64
}

// NewTimeSeries returns a series bounded to max points (max ≤ 0 means a
// default of 4096).
func NewTimeSeries(max int) *TimeSeries {
	if max <= 0 {
		max = 4096
	}
	return &TimeSeries{max: max}
}

// Add appends a sample.
func (ts *TimeSeries) Add(t time.Time, v float64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.total++
	if len(ts.data) >= ts.max {
		half := len(ts.data) / 2
		copy(ts.data, ts.data[half:])
		ts.data = ts.data[:len(ts.data)-half]
	}
	ts.data = append(ts.data, Point{t, v})
}

// Len returns the number of retained points.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.data)
}

// Total returns the number of points ever added, including evicted ones.
func (ts *TimeSeries) Total() int64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.total
}

// Points returns a copy of the retained points in time order of insertion.
func (ts *TimeSeries) Points() []Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]Point(nil), ts.data...)
}

// Since returns a copy of the points with Time ≥ t0.
func (ts *TimeSeries) Since(t0 time.Time) []Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	i := sort.Search(len(ts.data), func(i int) bool { return !ts.data[i].Time.Before(t0) })
	return append([]Point(nil), ts.data[i:]...)
}

// Last returns the most recent point, or false when empty.
func (ts *TimeSeries) Last() (Point, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.data) == 0 {
		return Point{}, false
	}
	return ts.data[len(ts.data)-1], true
}

// Stats summarizes a slice of samples.
type Stats struct {
	Count          int
	Min, Max, Mean float64
	Sum            float64
	StdDev         float64
}

// Summarize computes summary statistics over points.
func Summarize(pts []Point) Stats {
	var s Stats
	if len(pts) == 0 {
		return s
	}
	s.Count = len(pts)
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, p := range pts {
		s.Sum += p.Value
		if p.Value < s.Min {
			s.Min = p.Value
		}
		if p.Value > s.Max {
			s.Max = p.Value
		}
	}
	s.Mean = s.Sum / float64(s.Count)
	var ss float64
	for _, p := range pts {
		d := p.Value - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(s.Count))
	return s
}

// atomicFloat64 is a lock-free float64 cell (IEEE bits in a uint64).
// The zero value reads as 0.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) Load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat64) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat64) Add(d float64) {
	for {
		old := f.bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Grow raises the cell to v if v is larger than the current value.
func (f *atomicFloat64) Grow(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Counter is a monotonically increasing counter safe for concurrent use.
// It is lock-free; the zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d may not be negative).
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value safe for concurrent use.
// It is lock-free; the zero value is ready to use.
type Gauge struct {
	v atomicFloat64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d float64) { g.v.Add(d) }

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// EWMA is an exponentially weighted moving average over irregularly
// sampled observations. The half-life controls how fast old samples decay.
type EWMA struct {
	mu       sync.Mutex
	halfLife time.Duration
	value    float64
	last     time.Time
	seeded   bool
}

// NewEWMA returns an EWMA with the given half-life (must be positive).
func NewEWMA(halfLife time.Duration) *EWMA {
	if halfLife <= 0 {
		panic("metrics: EWMA half-life must be positive")
	}
	return &EWMA{halfLife: halfLife}
}

// Observe folds a new sample taken at time t into the average.
func (e *EWMA) Observe(t time.Time, v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.seeded {
		e.value, e.last, e.seeded = v, t, true
		return
	}
	dt := t.Sub(e.last)
	if dt < 0 {
		dt = 0
	}
	w := math.Exp2(-float64(dt) / float64(e.halfLife))
	e.value = w*e.value + (1-w)*v
	e.last = t
}

// Value returns the current average (zero before any observation).
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// Histogram counts observations into fixed buckets defined by their upper
// bounds; values above the last bound land in an overflow bucket. Observe
// is lock-free so histograms can sit on per-chunk hot paths.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	sum    atomicFloat64
	max    atomicFloat64 // largest overflow observation, for Quantile
	n      atomic.Int64
}

// NewHistogram returns a histogram with the given strictly increasing
// upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing at %d", i))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.max.Store(math.Inf(-1))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	if i == len(h.bounds) {
		h.max.Grow(v)
	}
	h.n.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Mean returns the mean of all observations (zero when empty).
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / float64(n)
}

// Buckets returns copies of the bounds and counts (counts has one extra
// trailing overflow bucket).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return append([]float64(nil), h.bounds...), counts
}

// Quantile returns an estimate of quantile q (0 ≤ q ≤ 1) by
// BucketQuantile, with the overflow bucket capped at the largest
// observation seen there, so tail quantiles are not silently capped at
// the last bound.
func (h *Histogram) Quantile(q float64) float64 {
	bounds, counts := h.Buckets()
	return BucketQuantile(bounds, counts, h.max.Load(), q)
}

// BucketQuantile estimates quantile q (0 ≤ q ≤ 1) from histogram bucket
// counts (len(counts) == len(bounds)+1, trailing overflow), assuming a
// uniform distribution within each bucket. Every overflow value is above
// the last bound and at most maxSeen, so that bucket interpolates
// between the two; a maxSeen below the last bound collapses it onto the
// bound. It returns 0 when no value was counted.
func BucketQuantile(bounds []float64, counts []int64, maxSeen, q float64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var cum float64
	lo := 0.0
	for i, c := range counts {
		fc := float64(c)
		hi := maxSeen
		if i < len(bounds) {
			hi = bounds[i]
		} else if hi < lo {
			hi = lo
		}
		if cum+fc >= target && fc > 0 {
			frac := min(max(0, (target-cum)/fc), 1)
			return lo + frac*(hi-lo)
		}
		cum += fc
		lo = hi
	}
	return lo
}

// Percentile returns the p-th percentile (0–100) of a value slice using
// nearest-rank on a sorted copy. It returns 0 for an empty slice.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}
