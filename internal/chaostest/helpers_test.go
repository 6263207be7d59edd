package chaostest

import (
	"context"
	"sync"
	"testing"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/core"
	"blobseer/internal/metrics"
	"blobseer/internal/storetest"
)

// newCluster builds a deployment for a chaos scenario. Unlike the GC
// suite's fixed-instant clock, faults here interact with dead
// providers' probe cooldowns, so the default clock advances.
func newCluster(t *testing.T, opts core.Options) *core.Cluster {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.ProviderStore == nil {
		opts.ProviderStore = storetest.Factory(t)
	}
	c, err := core.NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func totalChunks(c *core.Cluster) int {
	n := 0
	for _, id := range c.Providers() {
		if p, ok := c.Provider(id); ok {
			n += p.Stats().Chunks
		}
	}
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// converge deletes the given blobs and hammers the GC until the whole
// cluster drains: no chunks on any provider (a chunk lease left live
// would keep its chunk), no metadata tree nodes and no deleted BLOBs left
// unforgotten. This is the post-fault acceptance bar — a partition or
// crash must not leak anything.
func converge(t *testing.T, c *core.Cluster, blobs []uint64) {
	t.Helper()
	ctx := context.Background()
	for _, id := range blobs {
		if err := c.GC.DeleteBlob(id); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "post-fault convergence", func() bool {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
		return totalChunks(c) == 0 &&
			c.VM.MetaStore().Len() == 0 &&
			len(c.VM.DeletedBlobs()) == 0
	})
}

// connCache hands every provider one stable conn wrapper across Lookup
// calls, so injected fault state (partition flags, injector decisions)
// survives re-resolution instead of resetting with each fresh wrap.
type connCache struct {
	mu sync.Mutex
	m  map[string]client.Conn
	mk func(id string, conn client.Conn) client.Conn
}

func newConnCache(mk func(id string, conn client.Conn) client.Conn) *connCache {
	return &connCache{m: map[string]client.Conn{}, mk: mk}
}

func (cc *connCache) wrap(id string, conn client.Conn) client.Conn {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if c, ok := cc.m[id]; ok {
		return c
	}
	c := cc.mk(id, conn)
	cc.m[id] = c
	return c
}

// familyTotal sums every sample of a metric family — enough to assert
// "retries happened" / "a provider died" without pinning label sets.
func familyTotal(reg *metrics.Registry, name string) float64 {
	var sum float64
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			sum += s.Value
		}
	}
	return sum
}
