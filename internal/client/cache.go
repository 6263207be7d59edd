package client

import (
	"container/list"
	"context"
	"sync"

	"blobseer/internal/chunk"
)

// The chunk cache's budget in pool-buffer bytes, and the largest chunk it
// admits: a 1 MiB chunk is the prefetch window's job, not a cache hit's.
const ChunkCacheBytes, ChunkCacheMaxChunk = 32 << 20, 64 << 10

// ChunkCache is a byte-bounded LRU of whole small chunks keyed by chunk
// ID. A chunk is immutable and named by its SHA-256, so an entry needs no
// invalidation, only eviction; every entry went in verified against its ID.
// Entries live in chunk-pool buffers, returned to the pool on eviction, and
// a hit copies out. The zero value is empty; a nil *ChunkCache caches nothing.
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

// WithChunkCache serves small chunk fetches from cc, filled by the
// client's stores and verified fetches (default: none). Clients may share one.
func WithChunkCache(cc *ChunkCache) Option {
	return func(c *Client) { c.cache = cc }
}

// get returns a fresh pool buffer holding chunk d — or the range of it ctx
// carries, clamped as Conn.Fetch clamps it — when d is cached.
func (cc *ChunkCache) get(ctx context.Context, d chunk.Desc) ([]byte, bool) {
	if cc == nil || d.Size > ChunkCacheMaxChunk {
		return nil, false
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	e, ok := cc.index[d.ID]
	if !ok {
		return nil, false
	}
	cc.lru.MoveToFront(e)
	data := e.Value.(*cacheEntry).data
	if off, n := chunk.RangeFrom(ctx); n > 0 {
		off = min(off, int64(len(data)))
		data = data[off : off+min(n, int64(len(data))-off)]
	}
	return append(chunk.GetBuf(len(data)), data...), true
}

// put admits a copy of chunk id's bytes unless it is over the admission
// limit or already cached, evicting from the cold end to stay in budget.
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
