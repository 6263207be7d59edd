package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/policy"
	"blobseer/internal/selfconfig"
	"blobseer/internal/selfopt"
	"blobseer/internal/storetest"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	if opts.Clock == nil {
		now := t0
		opts.Clock = func() time.Time { return now }
	}
	if opts.ProviderStore == nil {
		// BLOBSEER_PROVIDER_STORE=disk reruns the whole suite
		// against the durable store.
		opts.ProviderStore = storetest.Factory(t)
	}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterWriteReadEndToEnd(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, Options{Providers: 4, Monitoring: true})
	cl := c.Client("alice")
	info, err := cl.Create(ctx, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("blobseer!"), 500)
	if _, err := cl.Write(ctx, info.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(ctx, info.ID, 0, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read mismatch err=%v", err)
	}
	// Data actually spread over providers.
	spread := 0
	for _, id := range c.Providers() {
		p, _ := c.Provider(id)
		if p.Used() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("chunks on %d providers", spread)
	}
}

func TestClusterMonitoringPipeline(t *testing.T) {
	ctx := context.Background()
	now := t0
	c := newCluster(t, Options{Providers: 2, Monitoring: true, AgentBatch: 1,
		Clock: func() time.Time { return now }})
	cl := c.Client("alice")
	info, _ := cl.Create(ctx, 64)
	if _, err := cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte("x"), 256)); err != nil {
		t.Fatal(err)
	}
	c.Tick(now)
	// Introspector saw the client write.
	st, ok := c.Intro.Blob(info.ID)
	if !ok || st.Writes != 1 {
		t.Fatalf("blob stats=%+v ok=%v", st, ok)
	}
	// History saw user activity via the mesh.
	if c.Hist.Total() == 0 {
		t.Fatal("history empty")
	}
	// A denied write reaches the history as a failure and the
	// introspector not at all: the event's Err carries the outcome.
	c.Enf.Block("alice", time.Hour, policy.Violation{Time: now})
	if _, err := cl.Write(ctx, info.ID, 0, []byte("denied")); err == nil {
		t.Fatal("blocked write succeeded")
	}
	c.Tick(now)
	if n := c.Hist.Failures("alice", "write", now, time.Minute); n != 1 {
		t.Fatalf("history write failures=%d, want 1", n)
	}
	if n := c.Hist.Count("alice", "write", now, time.Minute); n != 2 {
		t.Fatalf("history writes=%d, want 2", n)
	}
	if st, _ := c.Intro.Blob(info.ID); st.Writes != 1 || st.BytesWritten != 256 {
		t.Fatalf("denied write reached the introspector: %+v", st)
	}
	// Provider physical params flowed.
	if len(c.Intro.Providers()) == 0 {
		t.Fatal("no provider state")
	}
}

// TestIntrospectionThroughMesh pins the introspection contract: client
// accesses reach the introspector only through the client's monitoring
// agent, so with a batch larger than the traffic they show after the
// next Tick flushes the agents and not before, and with monitoring off
// they never show.
func TestIntrospectionThroughMesh(t *testing.T) {
	for _, monitoring := range []bool{true, false} {
		t.Run(fmt.Sprintf("monitoring=%v", monitoring), func(t *testing.T) {
			ctx := context.Background()
			c := newCluster(t, Options{Providers: 2, Monitoring: monitoring, AgentBatch: 1024,
				Clock: func() time.Time { return t0 }})
			cl := c.Client("alice")
			info, err := cl.Create(ctx, 64)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte("x"), 256)); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Read(ctx, info.ID, 0, 0, 100); err != nil {
				t.Fatal(err)
			}
			if st, ok := c.Intro.Blob(info.ID); ok {
				t.Fatalf("access visible before the tick: %+v", st)
			}
			c.Tick(t0)
			st, ok := c.Intro.Blob(info.ID)
			if !monitoring {
				if ok {
					t.Fatalf("access visible with monitoring off: %+v", st)
				}
				return
			}
			if !ok || st.Writes != 1 || st.Reads != 1 || st.BytesWritten != 256 || st.BytesRead != 100 ||
				st.Users["alice"] != 2 {
				t.Fatalf("after tick: %+v ok=%v", st, ok)
			}
		})
	}
}

func TestClusterDoSDetectionEndToEnd(t *testing.T) {
	ctx := context.Background()
	now := t0
	c := newCluster(t, Options{
		Providers: 3, Monitoring: true, AgentBatch: 1,
		PolicySource: `policy flood { when rate(write, 10s) > 20 severity high then block(300s), log() }`,
		Clock:        func() time.Time { return now },
	})
	mallory := c.Client("mallory")
	alice := c.Client("alice")
	mb, _ := mallory.Create(ctx, 64)
	ab, _ := alice.Create(ctx, 64)

	payload := bytes.Repeat([]byte("z"), 128)
	for i := 0; i < 300; i++ {
		if _, err := mallory.Write(ctx, mb.ID, 0, payload); err != nil {
			t.Fatalf("flood write %d: %v", i, err)
		}
		now = now.Add(20 * time.Millisecond) // 50 writes/s
	}
	if _, err := alice.Write(ctx, ab.ID, 0, payload); err != nil {
		t.Fatal(err)
	}
	c.Tick(now)
	if !c.Enf.Blocked("mallory") {
		t.Fatal("flooder not blocked")
	}
	if c.Enf.Blocked("alice") {
		t.Fatal("correct client blocked")
	}
	if _, err := mallory.Write(ctx, mb.ID, 0, payload); !errors.Is(err, policy.ErrBlocked) {
		t.Fatalf("blocked write: %v", err)
	}
	// Trust dropped.
	if c.Trust.Value("mallory") >= 1 {
		t.Fatal("trust unchanged")
	}
	if c.Trust.Value("alice") != 1 {
		t.Fatal("alice trust harmed")
	}
}

// TestClusterCrawlerDetection: the live activity history records the
// BLOB each access touched, so distinct_blobs counts BLOBs on a running
// cluster and the default catalog's crawler rule throttles a user who
// touches more than 100 of them in 30 s.
func TestClusterCrawlerDetection(t *testing.T) {
	ctx := context.Background()
	now := t0
	c := newCluster(t, Options{Providers: 2, Monitoring: true, AgentBatch: 1,
		Clock: func() time.Time { return now }})
	crawler := c.Client("crawler")
	touch := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			info, err := crawler.Create(ctx, 64)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := crawler.Write(ctx, info.ID, 0, []byte("page")); err != nil {
				t.Fatal(err)
			}
			if _, err := crawler.Read(ctx, info.ID, 0, 0, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	touch(5)
	c.Tick(now)
	if n := c.Hist.DistinctBlobs("crawler", now, 30*time.Second); n != 5 {
		t.Fatalf("distinct BLOBs after touching 5: %d", n)
	}
	if _, ok := c.Eng.FirstDetection("crawler"); ok {
		t.Fatal("crawler rule fired at 5 BLOBs")
	}

	now = now.Add(time.Second)
	touch(96)
	c.Tick(now)
	if _, ok := c.Eng.FirstDetection("crawler"); !ok {
		t.Fatalf("crawler rule silent at %d BLOBs", c.Hist.DistinctBlobs("crawler", now, 30*time.Second))
	}
	// throttle(10): ten admissions in hand, then refused until the
	// bucket refills.
	var err error
	for i := 0; i < 11 && err == nil; i++ {
		_, err = crawler.Create(ctx, 64)
	}
	if !errors.Is(err, policy.ErrThrottled) {
		t.Fatalf("eleventh op at one instant: %v, want ErrThrottled", err)
	}
}

func TestClusterHealAfterProviderLoss(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, Options{Providers: 5, Replicas: 2, Monitoring: false})
	cl := c.Client("u")
	info, _ := cl.Create(ctx, 256)
	data := bytes.Repeat([]byte("abc"), 300)
	if _, err := cl.Write(ctx, info.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	victims := c.Providers()[:1]
	if err := c.RemoveProvider(victims[0]); err != nil {
		t.Fatal(err)
	}
	report, err := c.Heal(ctx, t0)
	if err != nil {
		t.Fatalf("heal: %v (report %+v)", err, report)
	}
	got, err := cl.Read(ctx, info.ID, 0, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after heal: %v", err)
	}
	if report.Repaired == 0 {
		t.Fatalf("nothing repaired: %+v", report)
	}
}

func TestClusterElasticity(t *testing.T) {
	cfg := selfconfig.DefaultConfig()
	cfg.Min, cfg.Max = 2, 16
	cfg.Cooldown = 0
	now := t0
	c := newCluster(t, Options{
		Providers: 2, Monitoring: true, AgentBatch: 1, Elasticity: &cfg,
		Clock: func() time.Time { return now },
	})
	if c.Elast == nil {
		t.Fatal("elasticity not wired")
	}
	before := len(c.Providers())
	d := c.Elast.Tick(now, 20) // way above band
	if !d.Acted || len(c.Providers()) <= before {
		t.Fatalf("no scale-up: %+v providers=%d", d, len(c.Providers()))
	}
}

func TestClusterReaperIntegration(t *testing.T) {
	ctx := context.Background()
	now := t0
	c := newCluster(t, Options{Providers: 2, Monitoring: true,
		Clock: func() time.Time { return now }})
	cl := c.Client("u")
	info, _ := cl.Create(ctx, 64)
	if _, err := cl.Write(ctx, info.ID, 0, []byte("temporary")); err != nil {
		t.Fatal(err)
	}
	c.Tick(now) // the write reaches the introspector's access stats
	// NewReaper routes deletions through the lifecycle manager: the
	// delete only marks the blob, and the sweep passes that retire its
	// writer's released chunk lease reclaim its chunks.
	reaper := c.NewReaper(selfopt.TTLStrategy{In: c.Intro, TTL: time.Minute})
	removed, err := reaper.Run(ctx, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 {
		t.Fatalf("removed=%v", removed)
	}
	if _, err := cl.Read(ctx, info.ID, 0, 0, 1); err == nil {
		t.Fatal("deleted blob still readable")
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range c.Providers() {
		if p, _ := c.Provider(id); p.Stats().Chunks != 0 {
			t.Fatalf("provider %s keeps %d chunks after reap", id, p.Stats().Chunks)
		}
	}
}

func TestClusterScaleToRemovesEmptiest(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, Options{Providers: 4, Monitoring: false})
	cl := c.Client("u")
	info, _ := cl.Create(ctx, 64)
	if _, err := cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte("k"), 64)); err != nil {
		t.Fatal(err)
	}
	cfg := selfconfig.DefaultConfig()
	cfg.Min, cfg.Cooldown = 1, 0
	ctl, err := selfconfig.New(cfg, actuatorForTest(c))
	if err != nil {
		t.Fatal(err)
	}
	d := ctl.Tick(t0, 0.1) // near zero load → scale down
	if !d.Acted || d.After >= 4 {
		t.Fatalf("decision=%+v", d)
	}
	// Data must still be readable (loaded provider retained or healed).
	if _, err := cl.Read(ctx, info.ID, 0, 0, 64); err != nil {
		t.Fatalf("read after scale-down: %v", err)
	}
}

// actuatorForTest exposes the unexported actuator for the test above.
func actuatorForTest(c *Cluster) selfconfig.Actuator { return actuator{c} }

func TestClusterBadPolicySource(t *testing.T) {
	_, err := NewCluster(Options{PolicySource: "garbage"})
	if err == nil {
		t.Fatal("want error for bad policy source")
	}
}

func TestClusterManyClients(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, Options{Providers: 4, Monitoring: true})
	for i := 0; i < 8; i++ {
		cl := c.Client(fmt.Sprintf("user%d", i))
		info, err := cl.Create(ctx, 128)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte{byte(i)}, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.VM.Blobs()); got != 8 {
		t.Fatalf("blobs=%d", got)
	}
}

// failFirstFetch fails the first Fetch after *failed is cleared with a
// transient injected fault, and passes every other call through.
type failFirstFetch struct {
	client.Conn
	failed *atomic.Bool
}

func (f failFirstFetch) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	if f.failed.CompareAndSwap(false, true) {
		return nil, storetest.ErrInjected
	}
	return f.Conn.Fetch(ctx, user, id)
}

// TestDefaultClusterRetriesTransientFetch: a cluster built without a
// Fault option still guards its providers, so a transient fault on the
// only replica is retried in place instead of failing the read.
func TestDefaultClusterRetriesTransientFetch(t *testing.T) {
	ctx := context.Background()
	var failed atomic.Bool
	failed.Store(true) // armed once the blob is written
	c := newCluster(t, Options{Providers: 1, Replicas: 1,
		WrapConn: func(_ string, conn client.Conn) client.Conn {
			return failFirstFetch{Conn: conn, failed: &failed}
		}})
	cl := c.Client("alice")
	info, err := cl.Create(ctx, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("retried!"), 512)
	if _, err := cl.Write(ctx, info.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	failed.Store(false)
	got, err := cl.Read(ctx, info.ID, 0, 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back different bytes")
	}
	if !failed.Load() {
		t.Fatal("the read made no Fetch")
	}
}
