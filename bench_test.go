// Package blobseer_test hosts the benchmark harness: one benchmark per
// paper table/figure (EXP-A … DD-3; see DESIGN.md §4) plus
// micro-benchmarks of the load-bearing substrates. Experiment benchmarks
// run reduced-scale deployments per iteration and report the headline
// quantity via b.ReportMetric; cmd/blobseer-bench regenerates the full
// tables.
package blobseer_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/cloudsim"
	"blobseer/internal/core"
	"blobseer/internal/experiments"
	"blobseer/internal/history"
	"blobseer/internal/introspect"
	"blobseer/internal/metrics"
	"blobseer/internal/monitor"
	"blobseer/internal/policy"
	"blobseer/internal/viz"
)

// ---- experiment benchmarks (one per table/figure) ----

// BenchmarkExpA_Visualization renders the EXP-A dashboard over a live
// introspected cluster.
func BenchmarkExpA_Visualization(b *testing.B) {
	ctx := context.Background()
	cluster, err := core.NewCluster(core.Options{Providers: 8, Monitoring: true, AgentBatch: 1})
	if err != nil {
		b.Fatal(err)
	}
	cl := cluster.Client("alice")
	info, _ := cl.Create(ctx, 4<<10)
	if _, err := cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte("v"), 64<<10)); err != nil {
		b.Fatal(err)
	}
	cluster.Tick(time.Now())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := viz.Dashboard(cluster.Intro, cluster.VM, 24)
		if len(out) == 0 {
			b.Fatal("empty dashboard")
		}
	}
}

// BenchmarkExpB_IntrospectionOverhead runs the monitoring-on
// configuration of EXP-B (20 clients × 1 GB on 150 providers) and
// reports aggregate throughput and parameter count.
func BenchmarkExpB_IntrospectionOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := cloudsim.NewDeployment(cloudsim.Config{Providers: 150, Monitoring: true, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		var done int64
		var last time.Duration
		cs := make([]*cloudsim.Client, 20)
		for j := range cs {
			cs[j] = d.AddClient(fmt.Sprintf("c%02d", j), cloudsim.Profile{
				Stripe: 4, OpBytes: 256 << 20, TotalBytes: 1 << 30, NIC: 125 * cloudsim.MB,
			})
		}
		d.Run(5 * time.Minute)
		for _, c := range cs {
			done += c.BytesDone()
			if c.FinishedAt() > last {
				last = c.FinishedAt()
			}
		}
		b.ReportMetric(float64(done)/cloudsim.MB/last.Seconds(), "agg_MB/s")
		b.ReportMetric(float64(d.Mesh.ParamCount()), "mon_params")
	}
}

// BenchmarkExpC1_DoSTimeline runs the EXP-C1 attack/recovery timeline
// and reports the dip and recovery levels.
func BenchmarkExpC1_DoSTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := cloudsim.NewDeployment(cloudsim.Config{Providers: 48, Security: true, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 20; j++ {
			d.AddClient(fmt.Sprintf("good%02d", j), cloudsim.Profile{
				Stripe: 4, OpBytes: 256 << 20, NIC: 125 * cloudsim.MB,
			})
		}
		for j := 0; j < 10; j++ {
			d.AddClient(fmt.Sprintf("evil%02d", j), cloudsim.Profile{
				Malicious: true, Stripe: 64, OpBytes: 64 << 20,
				StartAt: 60*time.Second + time.Duration(j)*time.Second,
			})
		}
		d.Run(4 * time.Minute)
		base := d.AggregateThroughputMBs(10*time.Second, 55*time.Second)
		rec := d.AggregateThroughputMBs(3*time.Minute, 4*time.Minute)
		b.ReportMetric(base, "baseline_MB/s")
		b.ReportMetric(rec, "recovered_MB/s")
		b.ReportMetric(float64(len(d.DetectionDelays())), "attackers_detected")
	}
}

// BenchmarkExpC2_ThroughputVsClients runs the 20-client, 50 %-malicious
// point of EXP-C2 in the unprotected and protected configurations.
func BenchmarkExpC2_ThroughputVsClients(b *testing.B) {
	run := func(security bool) float64 {
		d, err := cloudsim.NewDeployment(cloudsim.Config{Providers: 48, Security: security, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			d.AddClient(fmt.Sprintf("good%02d", j), cloudsim.Profile{
				Stripe: 4, OpBytes: 256 << 20, NIC: 125 * cloudsim.MB,
			})
		}
		for j := 0; j < 10; j++ {
			d.AddClient(fmt.Sprintf("evil%02d", j), cloudsim.Profile{
				Malicious: true, Stripe: 32, OpBytes: 64 << 20,
				StartAt: time.Duration(j) * time.Second,
			})
		}
		d.Run(3 * time.Minute)
		return d.CorrectThroughputMBs(90*time.Second, 3*time.Minute)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "nosec_MB/s")
		b.ReportMetric(run(true), "sec_MB/s")
	}
}

// BenchmarkExpC3_DetectionDelay runs the 50 %-malicious point of EXP-C3
// and reports first/last detection delays.
func BenchmarkExpC3_DetectionDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := cloudsim.NewDeployment(cloudsim.Config{Providers: 48, Security: true, Seed: 50})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 25; j++ {
			d.AddClient(fmt.Sprintf("good%02d", j), cloudsim.Profile{
				Stripe: 4, OpBytes: 1 << 30, NIC: 125 * cloudsim.MB,
			})
		}
		for j := 0; j < 25; j++ {
			d.AddClient(fmt.Sprintf("evil%02d", j), cloudsim.Profile{
				Malicious: true, Stripe: 32, OpBytes: 64 << 20,
				StartAt: time.Duration(j) * 800 * time.Millisecond,
			})
		}
		d.Run(4 * time.Minute)
		delays := d.DetectionDelays()
		if len(delays) > 0 {
			b.ReportMetric(delays[0].Seconds(), "first_detect_s")
			b.ReportMetric(delays[len(delays)-1].Seconds(), "last_detect_s")
		}
	}
}

// BenchmarkExpD_S3Gateway measures real PUT+GET round trips through the
// S3 gateway (the EXP-D path) at 1 MiB object size.
func BenchmarkExpD_S3Gateway(b *testing.B) {
	t := experiments.ExpD(experiments.Scale{Quick: true})
	if len(t.Rows) == 0 {
		b.Fatal("no rows")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One quick gateway sweep per iteration keeps this a real
		// end-to-end HTTP measurement.
		t = experiments.ExpD(experiments.Scale{Quick: true})
	}
	b.StopTimer()
	_ = t
}

// BenchmarkDD1_Elasticity runs the elastic load swing and reports
// elasticity actions.
func BenchmarkDD1_Elasticity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.DD1(experiments.Scale{Quick: true})
		if len(t.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkDD2_Replication runs the repair-after-failure experiment.
func BenchmarkDD2_Replication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.DD2(context.Background(), experiments.Scale{Quick: true})
		if len(t.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkDD3_Trust runs the trust-adaptive policy experiment.
func BenchmarkDD3_Trust(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.DD3(experiments.Scale{Quick: true})
		if len(t.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAB1_AllocationStrategies runs the placement-balance ablation.
func BenchmarkAB1_AllocationStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.AB1(experiments.Scale{Quick: true}); len(t.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAB2_BurstCache runs the burst-cache loss ablation.
func BenchmarkAB2_BurstCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.AB2(experiments.Scale{Quick: true}); len(t.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAB3_MetadataSharing runs the structural-sharing ablation.
func BenchmarkAB3_MetadataSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.AB3(experiments.Scale{Quick: true}); len(t.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// ---- micro-benchmarks of the substrates ----

func BenchmarkChunkSum64K(b *testing.B) {
	data := bytes.Repeat([]byte("x"), 64<<10)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		chunk.Sum(data)
	}
}

// treeBenchSizes are the BLOB lengths, in chunks, the metadata-tree
// benchmarks run at: the one-node tree of a small object, the 15-node
// tree of an eight-chunk one and a 1024-chunk BLOB.
var treeBenchSizes = []int64{1, 8, 1024}

// BenchmarkMetadataTreeWrite overwrites one chunk slot per version of a
// BLOB that is chunks long: each iteration copies one root-to-leaf path.
func BenchmarkMetadataTreeWrite(b *testing.B) {
	for _, chunks := range treeBenchSizes {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			tree := blobmeta.NewTree(blobmeta.NewMemStore("m", nil, nil), 1, 1)
			d := chunk.Desc{ID: chunk.Sum([]byte("x")), Size: 1, Providers: []string{"p"}}
			for i := 0; i < b.N; i++ {
				root, base := tree.Root(uint64(i+1), chunks), tree.Root(uint64(i), chunks)
				if err := tree.Write(root, base, map[int64]chunk.Desc{int64(i) % chunks: d}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetadataTreeRead reads every slot of a fully written version.
func BenchmarkMetadataTreeRead(b *testing.B) {
	for _, chunks := range treeBenchSizes {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			tree := blobmeta.NewTree(blobmeta.NewMemStore("m", nil, nil), 1, 1)
			writes := map[int64]chunk.Desc{}
			for i := int64(0); i < chunks; i++ {
				writes[i] = chunk.Desc{ID: chunk.Sum([]byte(fmt.Sprint(i))), Size: 1, Providers: []string{"p"}}
			}
			root := tree.Root(1, chunks)
			if err := tree.Write(root, blobmeta.Root{}, writes); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Read(root, 0, chunks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPolicyEval(b *testing.B) {
	h := history.New()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		h.Append(history.Event{
			Time: t0.Add(time.Duration(i) * 10 * time.Millisecond),
			User: "u", Op: "write", Bytes: 1 << 20, OK: true,
		})
	}
	ps := policy.MustParse(policy.DefaultCatalog)
	env := policy.HistoryEnv{H: h, Now: t0.Add(10 * time.Second)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			p.Eval(env, "u")
		}
	}
}

func BenchmarkPolicyParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := policy.Parse(policy.DefaultCatalog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistoryAppendScan(b *testing.B) {
	h := history.New(history.WithMaxPerUser(4096))
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := t0.Add(time.Duration(i) * time.Millisecond)
		h.Append(history.Event{Time: ti, User: "u", Op: "write", Bytes: 1, OK: true})
		if i%64 == 0 {
			h.Rate("u", "write", ti, 10*time.Second)
		}
	}
}

func BenchmarkClientWriteRealPlane(b *testing.B) {
	ctx := context.Background()
	cluster, err := core.NewCluster(core.Options{Providers: 4, Monitoring: false})
	if err != nil {
		b.Fatal(err)
	}
	cl := cluster.Client("bench")
	info, _ := cl.Create(ctx, 64<<10)
	payload := bytes.Repeat([]byte("w"), 256<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Write(ctx, info.ID, 0, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// delayDir models per-operation provider round-trip time on top of the
// real plane: every Store/Fetch sleeps for the configured RTT before
// hitting the in-process provider, the way a LAN deployment would pay a
// network round trip per chunk transfer. Latency modeled this way
// parallelizes (sleeps overlap), so the benchmark exposes how well the
// client hides per-replica latency — the quantity that matters in the
// paper's Grid'5000 setting — even on a small CPU budget.
type delayDir struct {
	inner client.Directory
	rtt   time.Duration
}

// delayConn embeds the inner conn, so lease traffic is forwarded (at no
// modeled RTT) rather than hidden.
type delayConn struct {
	client.Conn
	rtt time.Duration
}

func (d delayDir) Lookup(ctx context.Context, id string) (client.Conn, error) {
	conn, err := d.inner.Lookup(ctx, id)
	if err != nil {
		return nil, err
	}
	return delayConn{conn, d.rtt}, nil
}

// sleepCtx models the RTT but respects cancellation, the way a real
// in-flight network transfer aborts when its context dies.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d == 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c delayConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	if err := sleepCtx(ctx, c.rtt); err != nil {
		return err
	}
	return c.Conn.Store(ctx, user, id, data)
}

func (c delayConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	if err := sleepCtx(ctx, c.rtt); err != nil {
		return nil, err
	}
	return c.Conn.Fetch(ctx, user, id)
}

// benchPlanes is the provider-RTT grid the client benchmarks run over:
// the raw in-process plane (hashing-bound) and a modeled LAN plane
// (latency-bound, where replica fan-out pays off).
var benchPlanes = []struct {
	name string
	rtt  time.Duration
}{
	{"mem", 0},
	{"lan", 250 * time.Microsecond},
}

// BenchmarkClientWriteReplicated measures the replicated, unaligned
// write path on the real plane: replica stores fan out in parallel per
// chunk, bounded by the client worker pool, and the unaligned offset
// forces the edge-chunk merge. The plane × replicas × workers grid
// shows the win of the parallel data path over serial replica pushes.
func BenchmarkClientWriteReplicated(b *testing.B) {
	ctx := context.Background()
	for _, plane := range benchPlanes {
		for _, replicas := range []int{1, 3} {
			for _, workers := range []int{1, 8} {
				name := fmt.Sprintf("plane=%s/replicas=%d/workers=%d", plane.name, replicas, workers)
				b.Run(name, func(b *testing.B) {
					cluster, err := core.NewCluster(core.Options{
						Providers: 8, Monitoring: false, Replicas: replicas,
					})
					if err != nil {
						b.Fatal(err)
					}
					cl := client.New("bench", cluster.VM, cluster.PM,
						delayDir{cluster, plane.rtt},
						client.WithReplicas(replicas), client.WithWorkers(workers))
					info, _ := cl.Create(ctx, 64<<10)
					payload := bytes.Repeat([]byte("w"), 512<<10)
					b.SetBytes(int64(len(payload)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := cl.Write(ctx, info.ID, 37, payload); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkClientReadParallel measures concurrent readers over a
// replicated blob — the path that exercises the slice-copy read
// assembly, the striped provider store and, when enabled, hedged
// replica fetches.
func BenchmarkClientReadParallel(b *testing.B) {
	ctx := context.Background()
	for _, plane := range benchPlanes {
		for _, hedged := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				name := fmt.Sprintf("plane=%s/hedged=%v/workers=%d", plane.name, hedged, workers)
				b.Run(name, func(b *testing.B) {
					cluster, err := core.NewCluster(core.Options{
						Providers: 8, Monitoring: false, Replicas: 3,
					})
					if err != nil {
						b.Fatal(err)
					}
					wr := cluster.Client("bench")
					info, _ := wr.Create(ctx, 64<<10)
					payload := bytes.Repeat([]byte("r"), 1<<20)
					if _, err := wr.Write(ctx, info.ID, 0, payload); err != nil {
						b.Fatal(err)
					}
					b.SetBytes(int64(len(payload)))
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						cl := client.New("bench", cluster.VM, cluster.PM,
							delayDir{cluster, plane.rtt},
							client.WithWorkers(workers), client.WithHedgedReads(hedged))
						for pb.Next() {
							got, err := cl.Read(ctx, info.ID, 0, 0, int64(len(payload)))
							if err != nil {
								b.Fatal(err)
							}
							if len(got) != len(payload) {
								b.Fatal("short read")
							}
						}
					})
				})
			}
		}
	}
}

func BenchmarkMonitorIngest(b *testing.B) {
	svc := monitor.NewService("svc", 0)
	batch := make([]monitor.Record, 64)
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range batch {
		batch[i] = monitor.Record{Time: t0, Node: "p1", Param: fmt.Sprintf("k%d", i%8), Value: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.StoreRecords(batch)
	}
}

func BenchmarkBurstCache(b *testing.B) {
	c := introspect.NewBurstCache(1 << 16)
	recs := make([]monitor.Record, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(recs)
		if i%256 == 0 {
			c.Drain()
		}
	}
}

func BenchmarkMaxMinReshape(b *testing.B) {
	// 200 flows over 48 providers + 50 client NICs: the EXP-C2 shape.
	for i := 0; i < b.N; i++ {
		sim := cloudsim.NewSim()
		net := cloudsim.NewNet(sim)
		provs := make([]*cloudsim.Resource, 48)
		for j := range provs {
			provs[j] = cloudsim.NewResource(fmt.Sprintf("p%d", j), 125*cloudsim.MB)
		}
		for c := 0; c < 50; c++ {
			nic := cloudsim.NewResource(fmt.Sprintf("n%d", c), 125*cloudsim.MB)
			for f := 0; f < 4; f++ {
				net.Start("u", 64*cloudsim.MB, []*cloudsim.Resource{provs[(c*4+f)%48], nic}, nil)
			}
		}
		sim.Run(time.Minute)
	}
}

// BenchmarkClientStreamWrite compares the buffered compatibility Write
// (whole payload handed over at once) with the streaming BlobWriter
// (chunk slots flushed in the background while later bytes arrive) on
// both planes. On the modeled LAN plane the streaming path overlaps the
// per-chunk store round trips with payload delivery.
func BenchmarkClientStreamWrite(b *testing.B) {
	for _, plane := range benchPlanes {
		// The stream+metrics mode is the instrumented data path: same
		// streaming writer with every latency histogram and byte counter
		// live, the overhead budget the observability layer is held to.
		for _, mode := range []string{"buffered", "stream", "stream+metrics"} {
			name := fmt.Sprintf("plane=%s/mode=%s", plane.name, mode)
			b.Run(name, func(b *testing.B) {
				cluster, err := core.NewCluster(core.Options{Providers: 8, Monitoring: false})
				if err != nil {
					b.Fatal(err)
				}
				copts := []client.Option{client.WithWorkers(8)}
				if mode == "stream+metrics" {
					copts = append(copts, client.WithMetrics(
						metrics.NewRegistry(metrics.Label{Name: "process", Value: "bench"})))
				}
				cl := client.New("bench", cluster.VM, cluster.PM,
					delayDir{cluster, plane.rtt}, copts...)
				ctx := context.Background()
				info, _ := cl.Create(ctx, 64<<10)
				payload := bytes.Repeat([]byte("w"), 1<<20)
				blob, err := cl.Open(ctx, info.ID)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(payload)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "buffered" {
						if _, err := cl.Write(ctx, info.ID, 0, payload); err != nil {
							b.Fatal(err)
						}
						continue
					}
					// "stream" and "stream+metrics" share the streaming path.
					w, err := blob.NewWriter(ctx, 0)
					if err != nil {
						b.Fatal(err)
					}
					// Feed in 64 KiB pieces, the arrival pattern of a
					// network body.
					for off := 0; off < len(payload); off += 64 << 10 {
						if _, err := w.Write(payload[off : off+(64<<10)]); err != nil {
							b.Fatal(err)
						}
					}
					if err := w.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkClientStreamRead compares the buffered compatibility Read
// (whole range materialized) with the streaming BlobReader drained via
// WriteTo into a discard sink — the S3 GET shape. The streaming path
// never allocates the full object and pipelines chunk fetches ahead of
// the consumer.
func BenchmarkClientStreamRead(b *testing.B) {
	for _, plane := range benchPlanes {
		// stream+metrics = the same streaming read with the full metrics
		// registry attached (fetch/stall histograms, byte counters): the
		// CI overhead guard compares it against the committed baseline.
		for _, mode := range []string{"buffered", "stream", "stream+metrics"} {
			name := fmt.Sprintf("plane=%s/mode=%s", plane.name, mode)
			b.Run(name, func(b *testing.B) {
				cluster, err := core.NewCluster(core.Options{Providers: 8, Monitoring: false})
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				wr := cluster.Client("bench")
				info, _ := wr.Create(ctx, 64<<10)
				payload := bytes.Repeat([]byte("r"), 1<<20)
				if _, err := wr.Write(ctx, info.ID, 0, payload); err != nil {
					b.Fatal(err)
				}
				copts := []client.Option{client.WithWorkers(8), client.WithPrefetch(8)}
				if mode == "stream+metrics" {
					copts = append(copts, client.WithMetrics(
						metrics.NewRegistry(metrics.Label{Name: "process", Value: "bench"})))
				}
				cl := client.New("bench", cluster.VM, cluster.PM,
					delayDir{cluster, plane.rtt}, copts...)
				blob, err := cl.Open(ctx, info.ID)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(payload)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "buffered" {
						got, err := cl.Read(ctx, info.ID, 0, 0, int64(len(payload)))
						if err != nil || len(got) != len(payload) {
							b.Fatalf("read: %d bytes err=%v", len(got), err)
						}
						continue
					}
					r, err := blob.NewReader(ctx, 0, 0, int64(len(payload)))
					if err != nil {
						b.Fatal(err)
					}
					n, err := io.Copy(io.Discard, r)
					r.Close()
					if err != nil || n != int64(len(payload)) {
						b.Fatalf("stream read: %d bytes err=%v", n, err)
					}
				}
			})
		}
	}
}
