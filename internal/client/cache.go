package client

import (
	"container/list"
	"context"
	"crypto/sha256"
	"sync"

	"blobseer/internal/chunk"
)

// The chunk cache's budget in pool-buffer bytes, and the most bytes of a
// chunk one entry holds: a small chunk whole, a larger one's first
// ChunkCacheMaxChunk bytes (a BlobReader's demand head); the rest of a
// large chunk is the prefetch window's job, not a cache hit's.
const ChunkCacheBytes, ChunkCacheMaxChunk = 32 << 20, 64 << 10

// ChunkCache is a byte-bounded LRU keyed by chunk ID whose entries are a
// chunk's first min(size, ChunkCacheMaxChunk) bytes: a whole small chunk,
// admitted from a store or a verified fetch, or a large chunk's head,
// admitted by a BlobReader once head and remainder hashed to the ID (see
// admitHead). A chunk is immutable and named by its SHA-256, so an entry
// needs no invalidation, only eviction, and every cached byte was checked
// against its ID. Entries live in chunk-pool buffers, returned to the pool
// on eviction, and a hit copies out. The zero value is empty; a nil
// *ChunkCache caches nothing.
type ChunkCache struct {
	mu    sync.Mutex
	bytes int                        // pool-buffer capacity the entries hold
	lru   list.List                  // *cacheEntry, most recently used first
	index map[chunk.ID]*list.Element // id → its lru element
}

type cacheEntry struct {
	id   chunk.ID
	data []byte
}

// WithChunkCache serves small chunk fetches, and the heads of hot large
// chunks, from cc, filled by the client's stores and verified fetches
// (default: none). Clients may share one.
func WithChunkCache(cc *ChunkCache) Option {
	return func(c *Client) { c.cache = cc }
}

// get returns a fresh pool buffer holding chunk d — or the range of it ctx
// carries, clamped as Conn.Fetch clamps it — when an entry holds those
// bytes. A range ending past ChunkCacheMaxChunk misses without the lock.
func (cc *ChunkCache) get(ctx context.Context, d chunk.Desc) ([]byte, bool) {
	if cc == nil {
		return nil, false
	}
	off, end := int64(0), d.Size
	if o, n := chunk.RangeFrom(ctx); n > 0 {
		off = min(o, d.Size)
		end = off + min(n, d.Size-off)
	}
	if end > ChunkCacheMaxChunk {
		return nil, false
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	e, ok := cc.index[d.ID]
	if !ok || end > int64(len(e.Value.(*cacheEntry).data)) {
		return nil, false
	}
	cc.lru.MoveToFront(e)
	return append(chunk.GetBuf(int(end-off)), e.Value.(*cacheEntry).data[off:end]...), true
}

// put admits a copy of data, chunk id's first bytes, unless it is over
// the admission limit or id is already cached, evicting from the cold end
// to stay in budget.
func (cc *ChunkCache) put(id chunk.ID, data []byte) {
	if cc == nil || len(data) > ChunkCacheMaxChunk {
		return
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, ok := cc.index[id]; ok {
		return
	}
	if cc.index == nil {
		cc.index = make(map[chunk.ID]*list.Element)
	}
	buf := append(chunk.GetBuf(len(data)), data...)
	cc.index[id] = cc.lru.PushFront(&cacheEntry{id: id, data: buf})
	for cc.bytes += cap(buf); cc.bytes > ChunkCacheBytes; {
		old := cc.lru.Remove(cc.lru.Back()).(*cacheEntry)
		delete(cc.index, old.id)
		cc.bytes -= cap(old.data)
		chunk.PutBuf(old.data)
	}
}

// admitHead admits head, the first bytes of chunk d, when d is not cached
// and head followed by rest hashes to d.ID: one digest over both buffers,
// no copy.
func (cc *ChunkCache) admitHead(d chunk.Desc, head, rest []byte) {
	if cc == nil {
		return
	}
	cc.mu.Lock()
	_, cached := cc.index[d.ID]
	cc.mu.Unlock()
	if cached {
		return
	}
	h := sha256.New()
	h.Write(head)
	h.Write(rest)
	var sum chunk.ID
	if h.Sum(sum[:0]); sum == d.ID {
		cc.put(d.ID, head)
	}
}
