// TieredStore puts a bounded in-memory LRU cache, the hot tier, over a
// DiskStore cold tier. The cold tier is the source of truth: every
// mutation lands there first, and every authoritative read-out (Used,
// Count, List, Has) is answered by it, so the GC lifecycle
// contract is exactly the disk store's. The hot tier is purely a
// byte-bounded read cache with recency eviction: a Put writes through
// and leaves a hot copy (write-back demotion happens by LRU eviction,
// not by policy), and a cold Get promotes the chunk.
package diskstore

import (
	"container/list"
	"sync"

	"blobseer/internal/chunk"
	"blobseer/internal/metrics"
	"blobseer/internal/provider"
)

// TieredStore is a provider.Store with a RAM hot tier over a durable
// cold tier.
type TieredStore struct {
	cold *DiskStore

	hmu      sync.Mutex
	lru      *list.List // front = most recent; values are *hotEntry
	ent      map[chunk.ID]*list.Element
	hotBytes int64 // bound (≤ 0 disables the hot tier entirely)
	hotUsed  int64

	// Hit/miss counters (nil until Instrument): lock-free, shared with
	// the registry so the tier placement ratio shows up on /metrics.
	hits, misses *metrics.Counter
	hotUsedGauge *metrics.Gauge
}

type hotEntry struct {
	id   chunk.ID
	data []byte // the hot tier's own copy
}

// NewTiered wraps cold with a hot tier bounded to hotBytes of payload
// (≤ 0 disables caching: every read is served cold).
func NewTiered(cold *DiskStore, hotBytes int64) *TieredStore {
	return &TieredStore{
		cold:     cold,
		lru:      list.New(),
		ent:      make(map[chunk.ID]*list.Element),
		hotBytes: hotBytes,
	}
}

// Cold returns the underlying disk store (benchmarks measure it
// directly for cold-path numbers).
func (t *TieredStore) Cold() *DiskStore { return t.cold }

// Instrument publishes the tier's hit/miss counters and hot-tier
// occupancy into reg as blobseer_tier_fetches_total{result="hit"|"miss"}
// and blobseer_tier_hot_bytes. Call before serving traffic (the handles
// are installed without synchronization); a nil registry is a no-op.
func (t *TieredStore) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	fetches := reg.Counter("blobseer_tier_fetches_total",
		"Tiered-store chunk fetches by tier outcome.", "result")
	t.hits = fetches.With("hit")
	t.misses = fetches.With("miss")
	t.hotUsedGauge = reg.Gauge("blobseer_tier_hot_bytes",
		"Payload bytes resident in the RAM hot tier.").With()
}

// HotUsed returns the bytes currently held by the hot tier.
func (t *TieredStore) HotUsed() int64 {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	return t.hotUsed
}

// admit caches data under id, evicting least-recently-used chunks to
// stay under the byte bound. Oversized chunks are simply not cached.
func (t *TieredStore) admit(id chunk.ID, data []byte) {
	n := int64(len(data))
	if t.hotBytes <= 0 || n > t.hotBytes {
		return
	}
	t.hmu.Lock()
	defer t.hmu.Unlock()
	if el, ok := t.ent[id]; ok {
		t.lru.MoveToFront(el)
		return
	}
	for t.hotUsed+n > t.hotBytes {
		back := t.lru.Back()
		if back == nil {
			break
		}
		t.dropLocked(back.Value.(*hotEntry).id)
	}
	t.ent[id] = t.lru.PushFront(&hotEntry{id: id, data: append([]byte(nil), data...)})
	t.hotUsed += n
	if t.hotUsedGauge != nil {
		t.hotUsedGauge.Set(float64(t.hotUsed))
	}
}

// drop removes id from the hot tier if cached.
func (t *TieredStore) drop(id chunk.ID) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	t.dropLocked(id)
}

func (t *TieredStore) dropLocked(id chunk.ID) {
	el, ok := t.ent[id]
	if !ok {
		return
	}
	t.lru.Remove(el)
	delete(t.ent, id)
	t.hotUsed -= int64(len(el.Value.(*hotEntry).data))
	if t.hotUsedGauge != nil {
		t.hotUsedGauge.Set(float64(t.hotUsed))
	}
}

// hotGet serves id from the cache, refreshing its recency. Like
// GetAppend it appends to dst[:0], or to a chunk-pool buffer when dst
// is too small.
func (t *TieredStore) hotGet(id chunk.ID, dst []byte) ([]byte, bool) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	el, ok := t.ent[id]
	if !ok {
		return dst, false
	}
	t.lru.MoveToFront(el)
	d := el.Value.(*hotEntry).data
	if cap(dst) < len(d) {
		dst = chunk.GetBuf(len(d))
	}
	return append(dst[:0], d...), true
}

// Put writes through to the cold tier and leaves a hot copy.
func (t *TieredStore) Put(id chunk.ID, data []byte) error {
	if err := t.cold.Put(id, data); err != nil {
		return err
	}
	t.admit(id, data)
	return nil
}

// Get returns the chunk payload, hot tier first.
func (t *TieredStore) Get(id chunk.ID) ([]byte, error) {
	return t.GetAppend(id, nil)
}

// GetAppend implements provider.Store. A cold hit promotes the
// chunk; if the chunk was purged from the cold tier while the promote
// was in flight, the stale hot copy is dropped again (content
// addressing makes the returned bytes correct either way). It lends no
// views: the promotion copies a cold hit anyway.
func (t *TieredStore) GetAppend(id chunk.ID, dst []byte) ([]byte, error) {
	if out, ok := t.hotGet(id, dst); ok {
		if t.hits != nil {
			t.hits.Inc()
		}
		return out, nil
	}
	if t.misses != nil {
		t.misses.Inc()
	}
	if chunk.Borrows(dst) {
		dst = nil
	}
	out, err := t.cold.GetAppend(id, dst)
	if err != nil {
		return nil, err
	}
	t.admit(id, out)
	if !t.cold.Has(id) {
		t.drop(id)
	}
	return out, nil
}

// Purge implements provider.Store against the cold tier and
// evicts the hot copy.
func (t *TieredStore) Purge(id chunk.ID) (int64, error) {
	freed, err := t.cold.Purge(id)
	t.drop(id)
	return freed, err
}

// List implements provider.Store against the cold tier (the
// cache holds no chunk the cold tier does not).
func (t *TieredStore) List(after chunk.ID, limit int) ([]provider.ChunkInfo, bool) {
	return t.cold.List(after, limit)
}

// Has reports cold-tier presence (the authoritative set).
func (t *TieredStore) Has(id chunk.ID) bool { return t.cold.Has(id) }

// Used returns the cold tier's live payload bytes.
func (t *TieredStore) Used() int64 { return t.cold.Used() }

// Count returns the cold tier's distinct live chunk count.
func (t *TieredStore) Count() int { return t.cold.Count() }

// Close closes the cold tier and empties the cache.
func (t *TieredStore) Close() error {
	err := t.cold.Close()
	t.hmu.Lock()
	defer t.hmu.Unlock()
	t.lru.Init()
	t.ent = make(map[chunk.ID]*list.Element)
	t.hotUsed = 0
	return err
}
