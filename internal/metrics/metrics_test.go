package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestTimeSeriesAddAndPoints(t *testing.T) {
	ts := NewTimeSeries(10)
	for i := 0; i < 5; i++ {
		ts.Add(t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	pts := ts.Points()
	if len(pts) != 5 {
		t.Fatalf("len=%d", len(pts))
	}
	for i, p := range pts {
		if p.Value != float64(i) {
			t.Errorf("pts[%d]=%v", i, p.Value)
		}
	}
}

func TestTimeSeriesEviction(t *testing.T) {
	ts := NewTimeSeries(8)
	for i := 0; i < 100; i++ {
		ts.Add(t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	if ts.Len() > 8 {
		t.Fatalf("retained %d > bound 8", ts.Len())
	}
	if ts.Total() != 100 {
		t.Fatalf("total=%d", ts.Total())
	}
	last, ok := ts.Last()
	if !ok || last.Value != 99 {
		t.Fatalf("last=%v ok=%v", last, ok)
	}
}

func TestTimeSeriesSince(t *testing.T) {
	ts := NewTimeSeries(100)
	for i := 0; i < 10; i++ {
		ts.Add(t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	got := ts.Since(t0.Add(7 * time.Second))
	if len(got) != 3 {
		t.Fatalf("len=%d, want 3", len(got))
	}
	if got[0].Value != 7 {
		t.Fatalf("first=%v", got[0])
	}
}

func TestTimeSeriesLastEmpty(t *testing.T) {
	ts := NewTimeSeries(4)
	if _, ok := ts.Last(); ok {
		t.Fatal("Last on empty series should report !ok")
	}
}

func TestSummarize(t *testing.T) {
	pts := []Point{{t0, 1}, {t0, 2}, {t0, 3}, {t0, 4}}
	s := Summarize(pts)
	if s.Count != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Sum != 10 {
		t.Fatalf("stats=%+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("stddev=%v", s.StdDev)
	}
	if z := Summarize(nil); z.Count != 0 {
		t.Fatalf("empty summarize: %+v", z)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter=%d", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on negative Add")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge=%v", g.Value())
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(10 * time.Second)
	ti := t0
	for i := 0; i < 100; i++ {
		ti = ti.Add(time.Second)
		e.Observe(ti, 42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("ewma=%v", e.Value())
	}
}

func TestEWMAHalfLife(t *testing.T) {
	e := NewEWMA(10 * time.Second)
	e.Observe(t0, 100)
	// After exactly one half-life, a new sample of 0 should pull the
	// value to 50.
	e.Observe(t0.Add(10*time.Second), 0)
	if math.Abs(e.Value()-50) > 1e-9 {
		t.Fatalf("ewma=%v, want 50", e.Value())
	}
}

func TestEWMABackwardsTimeIsClamped(t *testing.T) {
	e := NewEWMA(time.Second)
	e.Observe(t0, 10)
	e.Observe(t0.Add(-time.Hour), 20) // dt clamped to 0 → full weight on old value
	if e.Value() != 10 {
		t.Fatalf("ewma=%v", e.Value())
	}
}

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count=%d", h.Count())
	}
	_, counts := h.Buckets()
	want := []int64{1, 2, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts=%v want %v", counts, want)
		}
	}
	if m := h.Mean(); math.Abs(m-(0.5+1.5+1.7+3+100)/5) > 1e-9 {
		t.Fatalf("mean=%v", m)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 30))
	}
	q50 := h.Quantile(0.5)
	if q50 < 5 || q50 > 25 {
		t.Fatalf("q50=%v out of plausible band", q50)
	}
	if q := h.Quantile(0.5); q < 0 {
		t.Fatalf("quantile negative: %v", q)
	}
	empty := NewHistogram([]float64{1})
	if empty.Quantile(0.9) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		h := NewHistogram([]float64{1, 2})
		for _, q := range []float64{0, 0.5, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Fatalf("Quantile(%v) on empty = %v, want 0", q, got)
			}
		}
	})
	t.Run("single-bucket", func(t *testing.T) {
		h := NewHistogram([]float64{10})
		for i := 0; i < 4; i++ {
			h.Observe(5)
		}
		if q := h.Quantile(0.5); q < 0 || q > 10 {
			t.Fatalf("q50=%v outside the only bucket [0,10]", q)
		}
		if q := h.Quantile(1); q != 10 {
			t.Fatalf("q100=%v, want bucket upper bound 10", q)
		}
		if q := h.Quantile(0); q != 0 {
			t.Fatalf("q0=%v, want bucket lower edge 0", q)
		}
	})
	t.Run("all-overflow", func(t *testing.T) {
		// Every observation lands past the last bound. The old code
		// capped all quantiles at the last bound (1); interpolation
		// against the observed max must report values beyond it.
		h := NewHistogram([]float64{1})
		h.Observe(50)
		h.Observe(100)
		if q := h.Quantile(1); q != 100 {
			t.Fatalf("q100=%v, want observed max 100", q)
		}
		if q := h.Quantile(0.5); q <= 1 || q > 100 {
			t.Fatalf("q50=%v, want within (1, 100]", q)
		}
	})
	t.Run("overflow-tail", func(t *testing.T) {
		h := NewHistogram([]float64{10, 20})
		for i := 0; i < 90; i++ {
			h.Observe(5)
		}
		for i := 0; i < 10; i++ {
			h.Observe(200)
		}
		// p99 falls in the overflow bucket: must exceed the last bound
		// instead of silently capping at 20.
		if q := h.Quantile(0.99); q <= 20 || q > 200 {
			t.Fatalf("q99=%v, want in (20, 200]", q)
		}
		if q := h.Quantile(1); q != 200 {
			t.Fatalf("q100=%v, want 200", q)
		}
	})
	t.Run("q0-and-q1", func(t *testing.T) {
		h := NewHistogram([]float64{1, 2, 4})
		h.Observe(1.5)
		h.Observe(3)
		if q := h.Quantile(0); q != 1 {
			t.Fatalf("q0=%v, want lower edge 1 of first non-empty bucket", q)
		}
		if q := h.Quantile(1); q != 4 {
			t.Fatalf("q1=%v, want upper bound 4 of last non-empty bucket", q)
		}
	})
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64((seed+j)%6) + 0.5)
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count=%d", h.Count())
	}
	_, counts := h.Buckets()
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != 8000 {
		t.Fatalf("bucket sum=%d", sum)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-increasing bounds")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if p := Percentile(vals, 0); p != 1 {
		t.Fatalf("p0=%v", p)
	}
	if p := Percentile(vals, 100); p != 5 {
		t.Fatalf("p100=%v", p)
	}
	if p := Percentile(vals, 50); p != 3 {
		t.Fatalf("p50=%v", p)
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Fatalf("empty percentile=%v", p)
	}
}

// Property: percentile is always within [min, max] of the input.
func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		p := float64(pRaw) / 255 * 100
		got := Percentile(vals, p)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
