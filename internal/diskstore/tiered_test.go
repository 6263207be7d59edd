package diskstore

import (
	"bytes"
	"sync"
	"testing"

	"blobseer/internal/chunk"
	"blobseer/internal/provider"
)

func openTiered(t *testing.T, hotBytes int64) *TieredStore {
	t.Helper()
	cold, err := Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTiered(cold, hotBytes)
	t.Cleanup(func() { ts.Close() })
	return ts
}

func TestTieredWriteThroughAndPromote(t *testing.T) {
	ts := openTiered(t, 1<<20)
	data := payload(100, 4096)
	id := mustPut(t, ts, data)
	if ts.HotUsed() != 4096 {
		t.Fatalf("HotUsed=%d after Put, want 4096 (write-through caches)", ts.HotUsed())
	}
	if ts.Cold().Used() != 4096 {
		t.Fatal("cold tier missed the write-through")
	}
	got, err := ts.Get(id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get: %v", err)
	}

	// Evict by hand, then a Get must fall through cold and re-promote.
	ts.drop(id)
	if ts.HotUsed() != 0 {
		t.Fatal("drop did not empty the cache")
	}
	got, err = ts.Get(id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cold Get: %v", err)
	}
	if ts.HotUsed() != 4096 {
		t.Fatalf("HotUsed=%d after cold Get, want 4096 (promote-on-Get)", ts.HotUsed())
	}
}

func TestTieredEvictionBound(t *testing.T) {
	ts := openTiered(t, 1000)
	var ids []chunk.ID
	for i := 0; i < 10; i++ {
		ids = append(ids, mustPut(t, ts, payload(200+i, 300)))
	}
	if hu := ts.HotUsed(); hu > 1000 {
		t.Fatalf("HotUsed=%d exceeds 1000-byte bound", hu)
	}
	// The cold tier holds everything regardless.
	if ts.Count() != 10 || ts.Used() != 3000 {
		t.Fatalf("cold Count=%d Used=%d, want 10/3000", ts.Count(), ts.Used())
	}
	// Evicted chunks still readable (cold), recent ones hot.
	for i, id := range ids {
		got, err := ts.Get(id)
		if err != nil || !bytes.Equal(got, payload(200+i, 300)) {
			t.Fatalf("chunk %d unreadable through tiering: %v", i, err)
		}
	}
	// Oversized chunk: stored cold, never cached.
	big := payload(999, 2000)
	mustPut(t, ts, big)
	if hu := ts.HotUsed(); hu > 1000 {
		t.Fatalf("oversized chunk entered the %d-byte cache (HotUsed=%d)", 1000, hu)
	}
	if got, err := ts.Get(chunk.Sum(big)); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversized chunk unreadable: %v", err)
	}
}

// TestTieredDeletePurgeDropHotCopy: a re-put keeps the one hot copy, and
// deleting the chunk — a Purge, the only way a store frees one — drops it
// from both tiers.
func TestTieredDeletePurgeDropHotCopy(t *testing.T) {
	ts := openTiered(t, 1<<20)
	d := payload(300, 500)
	id := mustPut(t, ts, d)
	mustPut(t, ts, d)
	if ts.HotUsed() != 500 {
		t.Fatalf("re-put chunk holds %d hot bytes, want one 500-byte copy", ts.HotUsed())
	}
	if freed, err := ts.Purge(id); err != nil || freed != 500 {
		t.Fatalf("Purge = (%d, %v)", freed, err)
	}
	if ts.HotUsed() != 0 || ts.Has(id) {
		t.Fatalf("purged chunk lingers: hot=%d has=%v", ts.HotUsed(), ts.Has(id))
	}
	if _, err := ts.Get(id); err != provider.ErrNotFound {
		t.Fatalf("Get purged = %v, want ErrNotFound", err)
	}
}

func TestTieredLifecycleDelegatesToCold(t *testing.T) {
	ts := openTiered(t, 1<<20)
	for i := 0; i < 20; i++ {
		mustPut(t, ts, payload(400+i, 100))
	}
	got := listAll(ts)
	want := listAll(ts.Cold())
	if len(got) != 20 || len(got) != len(want) {
		t.Fatalf("List lengths: tiered=%d cold=%d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("tiered List diverges from cold List")
		}
	}
	if ts.Count() != 20 {
		t.Fatal("Count must reflect the cold tier")
	}
}

func TestTieredConcurrentChurn(t *testing.T) {
	ts := openTiered(t, 8<<10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := payload(w*10000+i%37, 256)
				id := chunk.Sum(d)
				switch i % 4 {
				case 0, 1:
					if err := ts.Put(id, d); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 2:
					if got, err := ts.Get(id); err == nil && !bytes.Equal(got, d) {
						t.Error("Get returned wrong bytes")
						return
					}
				default:
					_, _ = ts.Purge(id)
				}
			}
		}(w)
	}
	wg.Wait()
	// Cache coherence: every hot chunk must still exist cold, byte-equal.
	ts.hmu.Lock()
	var hotIDs []chunk.ID
	for id := range ts.ent {
		hotIDs = append(hotIDs, id)
	}
	ts.hmu.Unlock()
	for _, id := range hotIDs {
		if !ts.Cold().Has(id) {
			continue // raced with a purge after snapshot; fine
		}
		hot, ok := ts.hotGet(id, nil)
		if !ok {
			continue
		}
		cold, err := ts.Cold().Get(id)
		if err == nil && !bytes.Equal(hot, cold) {
			t.Fatal("hot copy diverges from cold source of truth")
		}
	}
}
