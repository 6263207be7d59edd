package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

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
		// BLOBSEER_PROVIDER_STORE=disk|tiered reruns the whole suite
		// against the durable store implementations.
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
	// Storage servers persisted records.
	if c.Store.ParamCount() == 0 {
		t.Fatal("storage servers empty")
	}
	// Provider physical params flowed.
	if len(c.Intro.Providers()) == 0 {
		t.Fatal("no provider state")
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
	c := newCluster(t, Options{Providers: 2, Monitoring: false,
		Clock: func() time.Time { return now }})
	cl := c.Client("u")
	info, _ := cl.Create(ctx, 64)
	if _, err := cl.Write(ctx, info.ID, 0, []byte("temporary")); err != nil {
		t.Fatal(err)
	}
	// NewReaper routes deletions through the lifecycle manager: pins are
	// honoured and chunk reclaim is exact.
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
