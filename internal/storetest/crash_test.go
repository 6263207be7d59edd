package storetest_test

import (
	"context"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/diskstore"
	"blobseer/internal/provider"
	"blobseer/internal/storetest"
)

// TestReleaseWhileCrashedKeepsTwoPasses: a writer's lease released while
// its provider's store is down still protects the writer's chunk until
// two sweep passes have run after the release, on a memory store and on
// a disk store. The sweep clock is the provider's own, so a store that
// cannot answer when the lease is released, and comes back with the
// chunk after a reboot, cannot bring the retirement forward.
func TestReleaseWhileCrashedKeepsTwoPasses(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) provider.Store
	}{
		{"mem", func(*testing.T) provider.Store { return provider.NewMemStore(0) }},
		{"disk", func(t *testing.T) provider.Store {
			ds, err := diskstore.Open(t.TempDir(), diskstore.Options{CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ds.Close() })
			return ds
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			data := []byte(tc.name)
			id := chunk.Sum(data)
			cs := storetest.NewCrashStore(tc.open(t), nil)
			p := provider.New("p00", "z0", 0, provider.WithStore(cs))
			advance := func() {
				t.Helper()
				if _, err := p.AdvanceEpoch(ctx); err != nil {
					t.Fatal(err)
				}
			}
			purge := func(want int, after string) {
				t.Helper()
				if n, _, err := p.PurgeChunks(ctx, []chunk.ID{id}); err != nil || n != want {
					t.Fatalf("purge after %s = %d, %v, want %d", after, n, err, want)
				}
			}
			for i := 0; i < 5; i++ {
				advance()
			}
			if err := p.Store(chunk.WithLease(ctx, &chunk.Lease{ID: "L", TTL: time.Minute}), "u", id, data); err != nil {
				t.Fatal(err)
			}
			cs.Crash()
			if err := p.ReleaseLease(ctx, "L"); err != nil {
				t.Fatal(err)
			}
			cs.Restart(false)
			purge(0, "a release while crashed and a restart")
			advance()
			purge(0, "one pass")
			advance()
			purge(1, "two passes")
			if p.Has(id) {
				t.Fatal("the purged chunk is still present")
			}
		})
	}
}
