package replay

// MetricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd lists the metrics of an untraced run (-trace 0), in the order
// BENCHMARK.json lists them. The README glossary says how each is computed.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"goodput_mbps", "MB/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"ttfb_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

// PerLayer lists the metrics of a traced run (-trace 1). Layers are the
// repo's module names; http is the load generator's own view and proc the
// process as a whole.
var PerLayer = []MetricDef{
	{Name: "http.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "http.lat_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "http.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "http.lat_max_ms", Unit: "ms", Better: "lower"},
	{Name: "http.churn_late_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.fail_frac", Unit: "ratio", Better: "lower"},

	{Name: "s3gate.span_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "s3gate.ttfb_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "s3gate.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "s3gate.errors", Unit: "count", Better: "lower"},

	{Name: "rpc.store_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "rpc.fetch_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "rpc.store_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc.fetch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "rpc.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "rpc.inflight_mean", Unit: "count", Better: "higher"},
	{Name: "rpc.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "rpc.errors", Unit: "count", Better: "lower"},

	{Name: "diskstore.put_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "diskstore.get_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "diskstore.put_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "diskstore.get_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "diskstore.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "diskstore.put_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "diskstore.disk_mb_end", Unit: "MB", Better: "lower"},
	{Name: "diskstore.space_amp", Unit: "ratio", Better: "lower"},

	{Name: "gc.passes", Unit: "count", Better: "higher"},
	{Name: "gc.pass_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gc.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "gc.chunks_swept", Unit: "count", Better: "higher"},
	{Name: "gc.reclaimed_mb", Unit: "MB", Better: "higher"},

	{Name: "proc.cpu_user_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_sys_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// Value is one measured metric as the result line carries it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run of one workload. The four contract keys are what the
// command prints as its last line; the rest identifies the run in -out files
// so -compare can group them.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	DataDir  string `json:"data_dir"`
	// Samples holds the number of samples behind each percentile metric.
	Samples map[string]int `json:"samples"`
	// TailPct is the highest latency percentile with at least ten samples
	// beyond it, TailMs its value (untraced runs).
	TailPct float64 `json:"tail_pct,omitempty"`
	TailMs  float64 `json:"tail_ms,omitempty"`

	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// values attaches each metric's unit to its measured value.
func values(defs []MetricDef, measured map[string]float64) map[string]Value {
	out := make(map[string]Value, len(defs))
	for _, d := range defs {
		out[d.Name] = Value{Value: measured[d.Name], Unit: d.Unit}
	}
	return out
}
