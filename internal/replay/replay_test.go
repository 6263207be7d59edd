package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

var testSizes = Sizes{LargeCount: 4, LargeSize: 2 << 20, SmallCount: 64, SmallSize: 16 << 10}

func printed(w Workload, seed int64) string {
	var b bytes.Buffer
	PrintOps(&b, Config{Workload: w, Seed: seed, Sizes: testSizes}, 300)
	return b.String()
}

// The op stream — kinds, keys, generations and payload CRCs — is a pure
// function of the seed.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range Workloads {
		a, b, c := printed(w, 7), printed(w, 7), printed(w, 8)
		if a != b {
			t.Errorf("%s: two streams from seed 7 differ", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.Name)
		}
	}
}

// No two payloads share a chunk, or the content-addressed store would dedupe
// the write away.
func TestPayloadsAreUnique(t *testing.T) {
	d := newDataset(1, testSizes)
	a, b := make([]byte, d.small.objSize), make([]byte, d.small.objSize)
	d.fill(a, d.small, 3, 1, 0)
	for _, other := range []struct {
		b   *bucket
		key int
		gen uint32
	}{{d.small, 3, 2}, {d.small, 4, 1}, {d.churn, 3, 1}} {
		d.fill(b, other.b, other.key, other.gen, 0)
		for off := 0; off < len(a); off += stampEvery {
			if bytes.Equal(a[off:off+stampEvery], b[off:off+stampEvery]) {
				t.Errorf("block %d of small/3 gen 1 equals %s/%d gen %d", off/stampEvery, other.b.name, other.key, other.gen)
			}
		}
	}
	// A range of a payload is the same bytes as that part of the whole.
	whole, part := make([]byte, d.large.objSize), make([]byte, rangeLen)
	d.fill(whole, d.large, 1, 1, 0)
	d.fill(part, d.large, 1, 1, chunkSize)
	if !bytes.Equal(part, whole[chunkSize:chunkSize+rangeLen]) {
		t.Error("a range fill differs from the whole payload")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(lo, hi int64) interval { return interval{lo * 1e6, hi * 1e6} }
	for _, tc := range []struct {
		name           string
		s3, rpc, disk  []interval
		h, s, r, d     int64 // want, ms
		httpLo, httpHi int64
	}{
		{name: "nested", httpLo: 0, httpHi: 100,
			s3: []interval{ms(10, 90)}, rpc: []interval{ms(20, 60)}, disk: []interval{ms(30, 40)},
			h: 20, s: 40, r: 30, d: 10},
		{name: "parallel rpc spans count once", httpLo: 0, httpHi: 100,
			s3:  []interval{ms(0, 100)},
			rpc: []interval{ms(10, 50), ms(30, 70), ms(80, 90)}, disk: []interval{ms(20, 40), ms(35, 45), ms(85, 86)},
			h: 0, s: 30, r: 44, d: 26},
		{name: "children are clipped to their parents", httpLo: 10, httpHi: 50,
			s3: []interval{ms(20, 60)}, rpc: []interval{ms(0, 30), ms(45, 70)}, disk: []interval{ms(5, 25), ms(40, 47)},
			h: 10, s: 15, r: 8, d: 7},
		{name: "no spans: all of it is the http layer's", httpLo: 0, httpHi: 10, h: 10},
	} {
		h, s, r, d := selfTimes(ms(tc.httpLo, tc.httpHi), tc.s3, tc.rpc, tc.disk)
		got := [4]int64{h / 1e6, s / 1e6, r / 1e6, d / 1e6}
		if want := [4]int64{tc.h, tc.s, tc.r, tc.d}; got != want {
			t.Errorf("%s: self times %v, want %v", tc.name, got, want)
		}
		if sum := h + s + r + d; sum != (tc.httpHi-tc.httpLo)*1e6 {
			t.Errorf("%s: self times sum to %d", tc.name, sum)
		}
	}
}

func TestQuantileAndTail(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.25: 1.75} {
		if got := quantile(v, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
	// The printed tail is the highest percentile with ≥ 10 samples beyond it.
	for n, want := range map[int]float64{99: 0, 100: 0.90, 199: 0.90, 200: 0.95, 1000: 0.99, 9999: 0.99, 10000: 0.999} {
		if got, ok := tailPercentile(n); got != want || ok != (want != 0) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", n, got, ok, want)
		}
	}
}

// A burst in one slice moves the mean rate and leaves the median slice rate.
func TestSliceMedianIgnoresABurst(t *testing.T) {
	var times []int64
	var ones []float64
	add := func(at int64) { times, ones = append(times, at), append(ones, 1) }
	for s := int64(0); s < 10; s++ { // 10 one-second slices, 5 events each
		for i := int64(0); i < 5; i++ {
			add(s*1e9 + i*1e8)
		}
	}
	for i := int64(0); i < 500; i++ { // burst in slice 3
		add(3e9 + i)
	}
	add(-1)   // before the phase
	add(10e9) // at its end: excluded
	if got := sliceMedian(0, 10e9, times, ones); got != 5 {
		t.Errorf("median slice rate %v, want 5", got)
	}
}

func TestCompare(t *testing.T) {
	set := func(ops ...float64) []Result {
		var rs []Result
		for _, v := range ops {
			rs = append(rs, Result{Workload: "large-read", Metrics: map[string]Value{"ops_per_s": {v, "1/s"}}})
		}
		return rs
	}
	var out bytes.Buffer
	if err := Compare(&out, set(100, 101, 102), set(99, 100, 103), 0.10); err != nil {
		t.Errorf("equal sets: %v\n%s", err, &out)
	}
	if err := Compare(&out, set(100, 101, 102), set(85, 86, 87), 0.10); err == nil {
		t.Error("a 15% drop in ops_per_s passed a 10% bound")
	}
	if err := Compare(&out, set(85, 86, 87), set(100, 101, 102), 0.10); err == nil {
		t.Error("sets whose medians are 17% apart agree")
	}
	if err := Compare(&out, set(100, 101, 102), set(94, 100, 106), 0.10); err == nil {
		t.Error("a set spread over 12% of its median passed a 10% bound")
	}
	if err := Compare(&out, set(100, 101, 102), set(94, 100, 106), 0); err != nil {
		t.Errorf("the same sets failed ops_per_s's own bound: %v", err)
	}
}

// BENCHMARK.json at the repo root names the same workloads and metrics the
// command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Seconds   int `json:"run_seconds"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []MetricDef `json:"end_to_end"`
		PerLayer  []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Seconds != DefaultConfig().Seconds {
		t.Errorf("run_seconds %d, default -seconds %d", spec.Seconds, DefaultConfig().Seconds)
	}
	if !reflect.DeepEqual(spec.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", spec.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, PerLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", spec.PerLayer, PerLayer)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v, want %s: %s", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
}

// Every workload runs end to end on a small dataset: no op fails, verify is
// clean, and the trace's own checks (every layer's spans are there and
// attached, scheduled GC passes ran and fit their period) hold. No timing is
// asserted.
func TestSmoke(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed, cfg.Sizes, cfg.Warmup = 5, testSizes, 200*time.Millisecond
	run := func(name string, cfg Config, defs []MetricDef) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg.DataDir = t.TempDir()
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s = %+v (present %t)", d.Name, v, ok)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
			}
			if left, _ := os.ReadDir(cfg.DataDir); len(left) != 0 {
				t.Errorf("data dir not removed: %v", left)
			}
		})
	}
	for _, w := range Workloads {
		if w.GCEvery > 0 {
			w.GCEvery /= 5 // a few passes in a one-second phase
		}
		cfg.Workload, cfg.Trace, cfg.Seconds = w, true, 2 // one untraced and one traced second
		run(w.Name+"/traced", cfg, PerLayer)
	}
	cfg.Workload, cfg.Trace, cfg.Seconds = Workloads[0], false, 1
	run(cfg.Workload.Name+"/untraced", cfg, EndToEnd)
}
