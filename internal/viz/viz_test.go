package viz

import (
	"context"
	"strings"
	"testing"
	"time"

	"blobseer/internal/core"
	"blobseer/internal/instrument"
	"blobseer/internal/introspect"
	"blobseer/internal/metrics"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// observe feeds one client event to the introspector as the monitoring
// mesh would forward it.
func observe(in *introspect.Introspector, ev instrument.Event) {
	in.Consume([]instrument.Event{ev})
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if len([]rune(s)) != 8 {
		t.Fatalf("len=%d", len([]rune(s)))
	}
	rs := []rune(s)
	if rs[0] != '▁' || rs[7] != '█' {
		t.Fatalf("s=%q", s)
	}
	if Sparkline(nil, 8) != "" {
		t.Fatal("empty input should render empty")
	}
	if Sparkline([]float64{1}, 0) != "" {
		t.Fatal("zero width should render empty")
	}
	// Constant series: all cells at the floor, no panic.
	flat := Sparkline([]float64{5, 5, 5}, 3)
	if len([]rune(flat)) != 3 {
		t.Fatalf("flat=%q", flat)
	}
}

func TestSparklineBucketsLongSeries(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := Sparkline(vals, 20)
	if len([]rune(s)) != 20 {
		t.Fatalf("len=%d", len([]rune(s)))
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); got != "█████·····" {
		t.Fatalf("bar=%q", got)
	}
	if got := Bar(20, 10, 10); got != strings.Repeat("█", 10) {
		t.Fatalf("overflow bar=%q", got)
	}
	if got := Bar(-1, 10, 4); got != "····" {
		t.Fatalf("negative bar=%q", got)
	}
	if Bar(1, 0, 4) != "" {
		t.Fatal("zero max should render empty")
	}
}

func TestSeriesPanel(t *testing.T) {
	pts := []metrics.Point{{Time: t0, Value: 1}, {Time: t0, Value: 3}}
	s := SeriesPanel("throughput", pts, 10)
	if !strings.Contains(s, "throughput") || !strings.Contains(s, "mean=2.0") {
		t.Fatalf("panel=%q", s)
	}
}

func TestProviderPanelEmpty(t *testing.T) {
	if !strings.Contains(ProviderPanel(nil, 10), "no providers") {
		t.Fatal("missing empty notice")
	}
}

func TestDashboardEndToEnd(t *testing.T) {
	ctx := context.Background()
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: true, AgentBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.Client("alice")
	info, _ := cl.Create(ctx, 64)
	if _, err := cl.Write(ctx, info.ID, 0, []byte(strings.Repeat("d", 256))); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(ctx, info.ID, 0, 0, 128); err != nil {
		t.Fatal(err)
	}
	cluster.Tick(t0)
	out := Dashboard(cluster.Intro, cluster.VM, 20)
	for _, want := range []string{
		"BlobSeer introspection dashboard",
		"PROVIDERS",
		"BLOB ACCESS PATTERNS",
		"CHUNK DISTRIBUTION",
		"alice",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
}

func TestDistribution(t *testing.T) {
	ctx := context.Background()
	cluster, err := core.NewCluster(core.Options{Providers: 4, Monitoring: false})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.Client("u")
	info, _ := cl.Create(ctx, 16)
	if _, err := cl.Write(ctx, info.ID, 0, []byte(strings.Repeat("x", 64))); err != nil {
		t.Fatal(err)
	}
	dist, err := Distribution(cluster.VM, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range dist {
		total += n
	}
	if total != 4 { // 64 bytes / 16-byte chunks
		t.Fatalf("distribution=%v", dist)
	}
}

func TestAccessPanelEmpty(t *testing.T) {
	in := introspect.NewIntrospector(0)
	if !strings.Contains(AccessPanel(in.HotBlobs(5)), "no accesses") {
		t.Fatal("missing empty notice")
	}
	observe(in, instrument.Event{
		Time: t0, Actor: instrument.ActorClient, Op: instrument.OpRead, Blob: 7, User: "u",
	})
	if !strings.Contains(AccessPanel(in.HotBlobs(5)), "blob 7") {
		t.Fatal("missing blob row")
	}
}

func TestMetricsPanel(t *testing.T) {
	reg := metrics.NewRegistry(metrics.Label{Name: "process", Value: "test"})
	reg.Counter("viz_ops_total", "ops", "kind").With("read").Add(42)
	h := reg.Histogram("viz_latency_seconds", "lat", []float64{0.01, 0.1, 1}).With()
	for i := 0; i < 100; i++ {
		h.Observe(0.05)
	}
	out := MetricsPanel(reg.Snapshot(), 16)
	for _, want := range []string{"viz_ops_total{kind=read}", "42", "viz_latency_seconds", "n=100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("panel missing %q:\n%s", want, out)
		}
	}
	// p50 of 100 observations at 0.05 interpolates inside (0.01, 0.1].
	if q := metrics.BucketQuantile([]float64{0.01, 0.1, 1}, []int64{0, 100, 0, 0}, 1, 0.5); q <= 0.01 || q > 0.1 {
		t.Fatalf("p50=%v", q)
	}
	if MetricsPanel(nil, 16) == "" {
		t.Fatal("empty snapshot should still render a header")
	}
	// Zero-count histograms are suppressed, not rendered as NaN.
	reg2 := metrics.NewRegistry()
	reg2.Histogram("viz_idle_seconds", "idle", []float64{1}).With()
	if out := MetricsPanel(reg2.Snapshot(), 16); strings.Contains(out, "viz_idle_seconds") {
		t.Fatalf("zero-count histogram rendered:\n%s", out)
	}
}
