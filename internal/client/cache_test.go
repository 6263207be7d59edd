package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/chunk"
	"blobseer/internal/metrics"
)

// countingConn counts the Fetches that reach a provider and, when
// corrupt, flips the first byte of every chunk it returns.
type countingConn struct {
	Conn
	fetches *atomic.Int64
	corrupt bool
}

func (c countingConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	c.fetches.Add(1)
	data, err := c.Conn.Fetch(ctx, user, id)
	if err == nil && c.corrupt && len(data) > 0 {
		data[0] ^= 0xff
	}
	return data, err
}

// counted returns a client whose every provider conn is counted, the
// providers in corrupt returning damaged bytes.
func (b *bed) counted(cc *ChunkCache, fetches *atomic.Int64, corrupt map[string]bool, opts ...Option) *Client {
	dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
		conn, err := b.Lookup(ctx, id)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, fetches: fetches, corrupt: corrupt[id]}, nil
	})
	return New("alice", b.vm, b.pm, dir, append(opts, WithChunkCache(cc))...)
}

// smallBlob writes n pseudo-random bytes as one object of one chunk (the
// default chunk size is far above every n used here).
func smallBlob(t *testing.T, c *Client, n int, seed int64) (uint64, []byte) {
	t.Helper()
	ctx := context.Background()
	info, err := c.Create(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	if _, err := c.Write(ctx, info.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	return info.ID, data
}

// tailDamageConn flips the first byte of every reply that starts past a
// chunk's first byte, as a replica with a corrupt remainder would.
type tailDamageConn struct{ Conn }

func (c tailDamageConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	data, err := c.Conn.Fetch(ctx, user, id)
	if off, _ := chunk.RangeFrom(ctx); err == nil && off > 0 && len(data) > 0 {
		data[0] ^= 0xff
	}
	return data, err
}

// TestChunkCacheHitIssuesNoFetch: a chunk the client just wrote is served
// from the cache (write-through); a fresh cache admits a chunk on its
// first fetch and serves every later read of it without a provider.
func TestChunkCacheHitIssuesNoFetch(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 3)
	var fetches atomic.Int64
	w := b.counted(new(ChunkCache), &fetches, nil, WithMetrics(metrics.NewRegistry()))
	blob, data := smallBlob(t, w, 16<<10, 1)
	if got, err := w.Read(ctx, blob, 0, 0, int64(len(data))); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read: %v", err)
	}
	if n := fetches.Load(); n != 0 {
		t.Fatalf("a written-through chunk cost %d fetches, want 0", n)
	}
	if n := w.m.fetchCache.Count(); n != 1 {
		t.Fatalf(`outcome="cache" observed %d times, want 1`, n)
	}

	r := b.counted(new(ChunkCache), &fetches, nil)
	for i := 0; i < 3; i++ {
		if got, err := r.Read(ctx, blob, 0, 0, int64(len(data))); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if n := fetches.Load(); n != 1 {
		t.Fatalf("three reads through a cold cache cost %d fetches, want 1", n)
	}
}

// TestChunkCacheRangedHit: a ranged read of a cached chunk returns exactly
// its slice, clamped at the chunk's end, without a fetch.
func TestChunkCacheRangedHit(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 3)
	var fetches atomic.Int64
	c := b.counted(new(ChunkCache), &fetches, nil)
	blob, data := smallBlob(t, c, 16<<10, 2)
	for _, r := range [][2]int64{{0, 1}, {1000, 3000}, {4 << 10, 4 << 10}, {16<<10 - 7, 7}, {16 << 10, 0}} {
		got, err := c.Read(ctx, blob, 0, r[0], r[1])
		if err != nil || !bytes.Equal(got, data[r[0]:r[0]+r[1]]) {
			t.Fatalf("read %d bytes at %d: %v", r[1], r[0], err)
		}
		// The cache's own clamp, as a provider clamps a range past the end.
		ranged, ok := c.cache.get(chunk.WithRange(ctx, r[0], 1<<20), chunk.Desc{ID: chunk.Sum(data), Size: int64(len(data))})
		if !ok || !bytes.Equal(ranged, data[r[0]:]) {
			t.Fatalf("clamped range at %d: hit %v, %d bytes", r[0], ok, len(ranged))
		}
	}
	if n := fetches.Load(); n != 0 {
		t.Fatalf("ranged reads of a cached chunk cost %d fetches, want 0", n)
	}
}

// TestChunkCacheAdmissionLimit: a chunk of exactly ChunkCacheMaxChunk
// bytes is cached; one byte more is never admitted, from the write or
// from any read.
func TestChunkCacheAdmissionLimit(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{ChunkCacheMaxChunk, ChunkCacheMaxChunk + 1} {
		b := newBed(t, 3)
		var fetches atomic.Int64
		cc := new(ChunkCache)
		c := b.counted(cc, &fetches, nil)
		blob, data := smallBlob(t, c, n, 3)
		for i := 0; i < 2; i++ {
			if got, err := c.Read(ctx, blob, 0, 0, int64(n)); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%d-byte chunk, read %d: %v", n, i, err)
			}
		}
		want, wantLen := int64(0), 1
		if n > ChunkCacheMaxChunk {
			want, wantLen = 2, 0
		}
		if got := fetches.Load(); got != want || cc.lru.Len() != wantLen {
			t.Fatalf("%d-byte chunk: %d fetches and %d entries, want %d and %d", n, got, cc.lru.Len(), want, wantLen)
		}
	}
}

// TestChunkCacheRejectsCorruptReplica: bytes that do not hash to the
// chunk's ID are not admitted, and the read fails over to the next
// replica, whose verified bytes are what the cache then holds. When every
// replica is corrupt the read fails and nothing is admitted.
func TestChunkCacheRejectsCorruptReplica(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 3)
	var fetches atomic.Int64
	blob, data := smallBlob(t, b.client("alice", WithReplicas(2)), 16<<10, 4)
	latest, err := b.vm.Latest(blob)
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := b.vm.Tree(blob)
	descs, err := tree.Read(tree.Root(latest.Version, latest.Size), 0, 1)
	if err != nil || len(descs[0].Providers) != 2 {
		t.Fatalf("descriptor %+v: %v", descs, err)
	}
	primary := descs[0].Providers[0]

	cc := new(ChunkCache)
	c := b.counted(cc, &fetches, map[string]bool{primary: true})
	if got, err := c.Read(ctx, blob, 0, 0, int64(len(data))); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read past a corrupt primary: %v", err)
	}
	if n := fetches.Load(); n != 2 {
		t.Fatalf("%d fetches, want 2 (the corrupt primary, then the next replica)", n)
	}
	if hit, ok := cc.get(ctx, descs[0]); !ok || !bytes.Equal(hit, data) {
		t.Fatal("the cache does not hold the verified replica's bytes")
	}

	cc = new(ChunkCache)
	c = b.counted(cc, &fetches, map[string]bool{primary: true, descs[0].Providers[1]: true})
	if _, err := c.Read(ctx, blob, 0, 0, int64(len(data))); !errors.Is(err, ErrUnavailable) || !errors.Is(err, errCorrupt) {
		t.Fatalf("read with every replica corrupt: %v, want ErrUnavailable wrapping errCorrupt", err)
	}
	if cc.lru.Len() != 0 {
		t.Fatalf("%d entries admitted from corrupt replicas", cc.lru.Len())
	}
}

// TestChunkCacheHeadHit: the first whole read of an object of 1 MiB
// chunks fetches chunk 0 as a head and a remainder, hashes both and
// admits the head; every later read takes the head from the cache, so
// chunk 0 reaches a provider only for its [64 KiB, 1 MiB) remainder, and
// the bytes are unchanged.
func TestChunkCacheHeadHit(t *testing.T) {
	ctx := context.Background()
	cc := new(ChunkCache)
	c, blob, payload, fetches := headBed(t, 2, nil, WithChunkCache(cc), WithMetrics(metrics.NewRegistry()))
	id0 := chunk.Sum(payload[:mib])
	for i := 1; i <= 3; i++ {
		n := fetches.len()
		if got, err := c.Read(ctx, blob, 0, 0, int64(len(payload))); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read %d: %v", i, err)
		}
		var chunk0 [][2]int64
		idx, ranges := fetches.since(n, map[chunk.ID]int64{id0: 0, chunk.Sum(payload[mib:]): 1}), fetches.rangesSince(n)
		for k, r := range ranges {
			if idx[k] == 0 {
				chunk0 = append(chunk0, r)
			}
		}
		e, cached := cc.index[id0]
		switch {
		case !cached || !bytes.Equal(e.Value.(*cacheEntry).data, payload[:ChunkCacheMaxChunk]):
			t.Fatalf("after read %d: cached %v; want the head cached", i, cached)
		case i == 1 && len(chunk0) != 2:
			t.Fatalf("read 1 fetched chunk 0 as %v, want a head and a remainder", chunk0)
		case i > 1 && (len(chunk0) != 1 || chunk0[0] != [2]int64{headBytes, mib - headBytes}):
			t.Fatalf("read %d fetched chunk 0 as %v, want only its [64 KiB, 1 MiB) remainder", i, chunk0)
		}
	}
	if n := c.m.fetchCache.Count(); n != 2 {
		t.Fatalf(`outcome="cache" observed %d times, want 2 (the later reads' heads)`, n)
	}
}

// TestChunkCacheHeadRanges: a head entry serves the head itself and the
// ranges inside it, and misses the whole chunk, a range past the head or
// crossing its end, also one that starts past the chunk's end (clamped there as Conn.Fetch
// clamps it), and a range that crosses the end of a head shorter than
// ChunkCacheMaxChunk.
func TestChunkCacheHeadRanges(t *testing.T) {
	ctx := context.Background()
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(data)
	d := chunk.Desc{ID: chunk.Sum(data), Size: int64(len(data))}
	short := chunk.Desc{ID: chunk.Sum(data[:1<<19]), Size: 1 << 19} // a 16 KiB head
	cc := new(ChunkCache)
	cc.put(d.ID, data[:ChunkCacheMaxChunk])
	cc.put(short.ID, data[:16<<10])
	for _, r := range []struct {
		d      chunk.Desc
		off, n int64
		hit    bool
	}{
		{d, 0, ChunkCacheMaxChunk, true}, {d, 1000, 3000, true}, {d, ChunkCacheMaxChunk - 7, 7, true},
		{d, ChunkCacheMaxChunk - 7, 8, false}, {d, ChunkCacheMaxChunk, 1, false}, {d, 0, 0, false}, {d, 2 << 20, 1, false},
		{short, 100, 16<<10 - 100, true}, {short, 100, 16 << 10, false},
	} {
		got, ok := cc.get(chunk.WithRange(ctx, r.off, r.n), r.d)
		if ok != r.hit || ok && !bytes.Equal(got, data[r.off:r.off+r.n]) {
			t.Fatalf("%d bytes at %d of a %d-byte chunk: hit %v with %d bytes, want hit %v", r.n, r.off, r.d.Size, ok, len(got), r.hit)
		}
	}
}

// TestChunkCacheRejectsCorruptRemainder: when a replica's remainder does
// not hash to the chunk's ID, no read admits the head. The reader checks
// no large chunk otherwise, so every read still returns the replica's
// bytes, the damaged one included, and no error, as without the cache.
func TestChunkCacheRejectsCorruptRemainder(t *testing.T) {
	cc := new(ChunkCache)
	c, blob, payload, _ := headBed(t, 1, func(_ string, conn Conn) Conn { return tailDamageConn{conn} }, WithChunkCache(cc))
	want := bytes.Clone(payload)
	want[headBytes] ^= 0xff
	for i := 0; i < 4; i++ {
		if got, err := c.Read(context.Background(), blob, 0, 0, int64(len(payload))); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d: %v, want the replica's bytes and no error", i, err)
		}
		if cc.lru.Len() != 0 {
			t.Fatalf("read %d admitted a head whose remainder does not hash to its ID", i)
		}
	}
}

// TestChunkCacheBudgetHoldsUnderEviction: whole small chunks and large
// chunks' heads share one budget; the entries' pool-buffer capacity never
// passes ChunkCacheBytes, and eviction drops the least recently used
// entries first, in the order a model LRU does.
func TestChunkCacheBudgetHoldsUnderEviction(t *testing.T) {
	ctx := context.Background()
	cc := new(ChunkCache)
	id := func(i int) chunk.ID {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(i))
		return chunk.Sum(b[:])
	}
	// Even entries are whole 17 KiB chunks, a 32 KiB pool class (the budget
	// counts capacity); odd ones are the 64 KiB heads of 1 MiB chunks.
	small, head := make([]byte, 17<<10), make([]byte, ChunkCacheMaxChunk)
	entry := func(i int) ([]byte, chunk.Desc, int) {
		if i%2 == 0 {
			return small, chunk.Desc{ID: id(i), Size: int64(len(small))}, 32 << 10
		}
		return head, chunk.Desc{ID: id(i), Size: 1 << 20}, 64 << 10
	}
	var model []int // entry numbers, most recently used first
	modelBytes := 0
	const n = 3 * ChunkCacheBytes / (48 << 10) // three budgets' worth
	for i := 0; i < n; i++ {
		if i%97 == 96 {
			// Touch the oldest entry, so the next evictions pass it over.
			old := model[len(model)-1]
			_, d, _ := entry(old)
			if _, ok := cc.get(chunk.WithRange(ctx, 100, 4<<10), d); !ok {
				t.Fatalf("entry %d evicted early", old)
			}
			model = append([]int{old}, model[:len(model)-1]...)
		}
		data, _, size := entry(i)
		cc.put(id(i), data)
		model = append([]int{i}, model...)
		for modelBytes += size; modelBytes > ChunkCacheBytes; model = model[:len(model)-1] {
			_, _, size := entry(model[len(model)-1])
			modelBytes -= size
		}
		held, k := 0, 0
		for e := cc.lru.Front(); e != nil; e, k = e.Next(), k+1 {
			held += cap(e.Value.(*cacheEntry).data)
			if k >= len(model) || e.Value.(*cacheEntry).id != id(model[k]) {
				t.Fatalf("after %d puts: entry %d of the LRU is not the model's entry %v", i+1, k, model[min(k, len(model)-1)])
			}
		}
		if cc.bytes != held || held != modelBytes || len(cc.index) != cc.lru.Len() || cc.lru.Len() != len(model) {
			t.Fatalf("after %d puts: accounted %d, held %d, model %d, budget %d, %d indexed, %d listed, model %d",
				i+1, cc.bytes, held, modelBytes, ChunkCacheBytes, len(cc.index), cc.lru.Len(), len(model))
		}
	}
	if cc.bytes <= ChunkCacheBytes-64<<10 {
		t.Fatalf("%d bytes held, want a full budget of %d", cc.bytes, ChunkCacheBytes)
	}
}

// TestChunkCacheHammer: concurrent small writers and readers, and large
// readers whose heads the cache admits, share one cache (run under -race)
// while a filler streams unrelated chunks through it, so entries are
// evicted and their buffers recycled beside the hits; every read returns
// the bytes its version holds, and the byte budget and its accounting
// hold at the end.
func TestChunkCacheHammer(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 4)
	cc := new(ChunkCache)
	var fetches atomic.Int64
	const workers, rounds = 6, 40
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		junk := make([]byte, 16<<10)
		for i := 0; i < 2*ChunkCacheBytes/len(junk); i++ {
			binary.BigEndian.PutUint64(junk, uint64(i))
			cc.put(chunk.Sum(junk), junk)
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := b.counted(cc, &fetches, nil, WithReplicas(2))
			info, err := c.Create(ctx, 1<<20)
			if err != nil {
				errc <- err
				return
			}
			data := make([]byte, 3<<20/2)
			rand.New(rand.NewSource(int64(100 + w))).Read(data)
			if _, err := c.Write(ctx, info.ID, 0, data); err != nil {
				errc <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds/4; i++ {
				lo, n := int64(0), int64(len(data))
				if i%2 == 1 { // a range, inside the head or across its end
					lo, n = int64(rng.Intn(ChunkCacheMaxChunk)), int64(1+rng.Intn(16<<10))
				}
				got, err := c.Read(ctx, info.ID, 0, lo, n)
				if err != nil || !bytes.Equal(got, data[lo:lo+n]) {
					errc <- fmt.Errorf("large reader %d: %d bytes at %d: %v", w, n, lo, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := b.counted(cc, &fetches, nil, WithReplicas(2))
			info, err := c.Create(ctx, 0)
			if err != nil {
				errc <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(w)))
			versions := map[uint64][]byte{}
			for i := 0; i < rounds; i++ {
				data := make([]byte, 1+rng.Intn(24<<10))
				rng.Read(data)
				if i%3 == 0 {
					// Content another worker also writes: one cache entry.
					data = bytes.Repeat([]byte{byte(i)}, len(data))
				}
				v, err := c.Write(ctx, info.ID, 0, data)
				if err != nil {
					errc <- err
					return
				}
				versions[v] = data
				for rv, want := range versions {
					lo := int64(rng.Intn(len(want)))
					got, err := c.Read(ctx, info.ID, rv, lo, int64(len(want))-lo)
					if err != nil || !bytes.Equal(got, want[lo:]) {
						errc <- fmt.Errorf("worker %d: v%d at %d: %v", w, rv, lo, err)
						return
					}
					break
				}
				runtime.Gosched()
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	held := 0
	for e := cc.lru.Front(); e != nil; e = e.Next() {
		held += cap(e.Value.(*cacheEntry).data)
	}
	if cc.bytes != held || cc.bytes > ChunkCacheBytes || len(cc.index) != cc.lru.Len() {
		t.Fatalf("cache accounts %d bytes, holds %d, budget %d; %d indexed, %d listed",
			cc.bytes, held, ChunkCacheBytes, len(cc.index), cc.lru.Len())
	}
}

// BenchmarkChunkCacheHit times a cache hit through fetchReplica, whole,
// ranged and a large chunk's head, and fails if a hit allocates anything
// beyond its pooled reply buffer: at most one allocation, of at most the
// reply's size, per op.
func BenchmarkChunkCacheHit(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(5)).Read(data)
	small := chunk.Desc{ID: chunk.Sum(data[:16<<10]), Size: 16 << 10}
	large := chunk.Desc{ID: chunk.Sum(data), Size: 1 << 20}
	c := New("alice", nil, nil, nil, WithChunkCache(new(ChunkCache)), WithMetrics(metrics.NewRegistry()))
	c.cache.put(small.ID, data[:16<<10])
	c.cache.put(large.ID, data[:ChunkCacheMaxChunk])
	for _, bc := range []struct {
		name string
		ctx  context.Context
		d    chunk.Desc
		want int
	}{
		{"whole=16KiB", context.Background(), small, 16 << 10},
		{"range=4KiBof16KiB", chunk.WithRange(context.Background(), 8<<10, 4<<10), small, 4 << 10},
		{"head=64KiBof1MiB", chunk.WithRange(context.Background(), 0, headBytes), large, headBytes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			run := func(n int) {
				for i := 0; i < n; i++ {
					got, err := c.fetchReplica(bc.ctx, bc.d)
					if err != nil || len(got) != bc.want {
						b.Fatalf("hit: %d bytes, %v; want %d", len(got), err, bc.want)
					}
					chunk.PutBuf(got)
				}
			}
			run(4) // warm the pool
			const gateOps = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(gateOps)
			runtime.ReadMemStats(&after)
			if perOp := (after.Mallocs - before.Mallocs) / gateOps; perOp > 1 {
				b.Fatalf("%d allocations per hit, want ≤ 1 (the pooled reply buffer)", perOp)
			}
			if perOp := (after.TotalAlloc - before.TotalAlloc) / gateOps; perOp > uint64(bc.want) {
				b.Fatalf("%d bytes allocated per %d-byte hit", perOp, bc.want)
			}
			b.SetBytes(int64(bc.want))
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}
