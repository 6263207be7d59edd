// Streaming blob I/O: the Blob handle and its chunk-granular reader and
// writer. A BlobReader pipelines a bounded window of chunk fetches ahead
// of the consumer over the serial-failover replica fetch path; a BlobWriter
// accumulates chunk-aligned buffers and flushes replica stores in the
// background as slots fill, publishing one version on Close. Both are
// context-first: cancelling the context aborts every in-flight chunk
// transfer.
package client

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

// Blob is a cheap handle on one BLOB: the immutable metadata plus the
// client it was opened through. It mints streaming readers and writers.
type Blob struct {
	c    *Client
	info vmanager.BlobInfo
}

// ID returns the BLOB id.
func (b *Blob) ID() uint64 { return b.info.ID }

// ChunkSize returns the BLOB's chunk size in bytes.
func (b *Blob) ChunkSize() int64 { return b.info.ChunkSize }

// Size returns the byte size of a version (0 = latest).
func (b *Blob) Size(version uint64) (int64, error) { return b.c.Size(b.info.ID, version) }

// Latest returns the latest published version number.
func (b *Blob) Latest() (uint64, error) { return b.c.Latest(b.info.ID) }

// NewReader returns a streaming reader over [offset, offset+length) of
// the given version (0 = latest published; length < 0 = to the end of
// the version). Holes read as zeros; a window past the version size
// fails with ErrShortRead. The first chunk a read needs is fetched alone,
// only its first 64 KiB when the read needs 512 KiB or more of it (see
// BlobReader); behind it the reader keeps a window of chunk fetches in
// flight ahead of the consumer (WithPrefetch); cancelling ctx aborts them.
// Callers must Close the reader.
func (b *Blob) NewReader(ctx context.Context, version uint64, offset, length int64) (*BlobReader, error) {
	c := b.c
	start := c.now()
	if err := c.gate.Allow(ctx, c.user, instrument.OpRead); err != nil {
		// The read-to-end sentinel must not leak into byte accounting as
		// a negative volume.
		evLen := length
		if evLen < 0 {
			evLen = 0
		}
		c.event(instrument.OpRead, b.info.ID, version, offset, evLen, err)
		return nil, err
	}
	vm, err := c.resolveVersion(b.info.ID, version)
	if err != nil {
		return nil, err
	}
	tree, err := c.vm.Tree(b.info.ID)
	if err != nil {
		return nil, err
	}
	// A version's tree is addressed by (version, root span).
	root := tree.Root(vm.Version, vm.Size)
	// Pin before snapshotting descriptors: from here until Close the
	// lifecycle layer neither retires nor reclaims this version, so a
	// concurrent retention pass or delete cannot pull chunks out from
	// under the stream. A pin refused because the BLOB was just deleted
	// or the version just retired fails the open cleanly instead.
	pinned := false
	if c.pinner != nil {
		if err := c.pinner.Pin(b.info.ID, vm.Version); err != nil {
			return nil, err
		}
		pinned = true
	}
	unpin := func() {
		if pinned {
			c.pinner.Unpin(b.info.ID, vm.Version)
		}
	}
	if length < 0 {
		length = vm.Size - offset
	}
	// Compared without the sum: offset+length wraps for large inputs.
	if offset < 0 || length < 0 || offset > vm.Size || length > vm.Size-offset {
		unpin()
		return nil, fmt.Errorf("%w: %d bytes at %d of %d", ErrShortRead, length, offset, vm.Size)
	}
	var descs []chunk.Desc
	loIdx := int64(0)
	if length > 0 {
		loIdx = offset / b.info.ChunkSize
		hiIdx := (offset + length - 1) / b.info.ChunkSize
		descs, err = tree.Read(root, loIdx, hiIdx+1)
		if err != nil {
			unpin()
			return nil, err
		}
	}
	rctx, cancel := context.WithCancel(ctx)
	return &BlobReader{
		c: c, ctx: rctx, cancel: cancel,
		blob: b.info.ID, version: vm.Version, chunkSize: b.info.ChunkSize,
		base: offset, length: length, loIdx: loIdx, descs: descs,
		window:  int64(c.prefetch),
		futures: make(map[int64]*chunkFuture),
		started: start,
		pinned:  pinned,
	}, nil
}

// NewWriter returns a streaming writer whose bytes land at the given
// absolute offset. Chunk slots are flushed to their replica set in the
// background as they fill; Close flushes the tail, assigns a version and
// publishes it. Cancelling ctx aborts in-flight chunk transfers and
// leaves the BLOB unpublished.
func (b *Blob) NewWriter(ctx context.Context, offset int64) (*BlobWriter, error) {
	c := b.c
	start := c.now()
	if err := c.gate.Allow(ctx, c.user, instrument.OpWrite); err != nil {
		c.event(instrument.OpWrite, b.info.ID, 0, offset, 0, err)
		return nil, err
	}
	if offset < 0 {
		return nil, fmt.Errorf("client: negative offset %d", offset)
	}
	return c.newWriter(ctx, b.info.ID, b.info.ChunkSize, offset, instrument.OpWrite, nil, start), nil
}

// chunkFuture is one in-flight (or completed) fetch of a chunk's part.
type chunkFuture struct {
	done   chan struct{}
	cancel context.CancelFunc // aborts this chunk's in-flight fetch
	off    int64              // chunk offset data starts at (a ranged fetch)
	data   []byte
	err    error
	// rest is a demand head's remainder, from chunk offset rest.off on;
	// the head answers only for the bytes before it. Until the reader's
	// next ensure starts its fetch, rest is a placeholder (done nil).
	rest *chunkFuture
	// verify marks a head whose remainder ends the chunk: once the
	// remainder lands, the pair is offered to the chunk cache.
	verify bool
}

// from returns the fetched bytes from chunk offset rel on, up to end; none
// past them, where a hole or a short chunk reads as zeros.
func (f *chunkFuture) from(rel, end int64) []byte {
	if n := int64(len(f.data)); rel-f.off < n {
		return f.data[rel-f.off : min(n, end-f.off)]
	}
	return nil
}

// drop cancels f's fetch, and its remainder's, and recycles their buffers
// into the chunk pool. Only settled fetches donate: an in-flight
// (cancelled) fetch still owns f.data and its buffer is simply dropped
// when the goroutine finishes. A remainder not started has nothing yet.
func (f *chunkFuture) drop() {
	if f.rest != nil && f.rest.done != nil {
		f.rest.drop()
	}
	f.cancel()
	select {
	case <-f.done:
		if f.err == nil {
			chunk.PutBuf(f.data)
		}
	default:
	}
}

// settled is the done channel of every future resolved on the reader's
// own goroutine: the holes, and a chunk the reader fetched itself.
var settled = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// holeFuture is the shared resolved future of every hole slot (zeros):
// holes carry no data and need no per-slot allocation.
var holeFuture = &chunkFuture{done: settled, cancel: func() {}}

// A demand fetch of a chunk part of at least splitMin bytes fetches only
// the part's first headBytes (see BlobReader), at the cost of a second
// fetch. With 1 MiB chunks on read-under-gc the split cut the median time
// to first byte to about a third; a 256 KiB head kept less of that gain.
const (
	splitMin  = 512 << 10
	headBytes = 64 << 10
)

// BlobReader streams one version window. It implements
// io.ReadSeekCloser and io.WriterTo. Not safe for concurrent use. Reads
// are demand first: an awaited chunk nothing is fetching yet (a read's
// first, or the first after a Seek out of the window) is fetched alone,
// so no prefetch delays the first byte. A part of it under splitMin is
// fetched whole and the prefetch window opens behind it once it lands.
// From a larger part only its first headBytes are fetched and handed to
// the consumer; only when the consumer comes back for more do the part's
// remainder, as a ranged fetch, and then the window start. A head that
// begins a chunk whose remainder the read also needs is offered, with
// the landed remainder, to the client's chunk cache (ChunkCache.admitHead),
// so a hot chunk's next head is a cache hit. A one-chunk read of a small
// part starts no goroutine.
type BlobReader struct {
	c         *Client
	ctx       context.Context
	cancel    context.CancelFunc
	blob      uint64
	version   uint64
	chunkSize int64
	base      int64 // absolute offset of the window start
	length    int64 // window length in bytes
	pos       int64 // current position relative to base
	served    int64 // bytes actually delivered to the consumer
	loIdx     int64 // chunk index of descs[0]
	descs     []chunk.Desc
	window    int64
	futures   map[int64]*chunkFuture
	started   time.Time
	err       error
	closed    bool
	pinned    bool // version pinned in the lifecycle layer until Close
}

// Version returns the resolved version the reader serves.
func (r *BlobReader) Version() uint64 { return r.version }

// Size returns the window length in bytes.
func (r *BlobReader) Size() int64 { return r.length }

// ensure drops every future outside the window [idx, idx+window), so the
// map never pins more than window chunk buffers. For a demand chunk idx
// (see BlobReader) it opens nothing and returns nil: await fetches it, so
// a failed demand fetch opens no window. Otherwise it launches fetches
// for the window's chunks not yet in flight — a head's remainder first; a
// hole resolves at once with nil data, so an awaited hole opens the
// window at once — and returns idx's.
func (r *BlobReader) ensure(idx int64) *chunkFuture {
	for i, f := range r.futures {
		if i < idx || i >= idx+r.window {
			// An evicted future may still be mid-fetch: abort it so the
			// prefetch window bounds in-flight transfers, not just the map.
			delete(r.futures, i)
			f.drop()
		}
	}
	if _, ok := r.futures[idx]; !ok && !r.hole(idx) {
		return nil
	}
	end := min(idx+r.window, r.loIdx+int64(len(r.descs)))
	for i := idx; i < end; i++ {
		f, ok := r.futures[i]
		switch {
		case ok && f.rest != nil && f.rest.done == nil:
			f.rest = r.start(i, f.rest.off)
		case ok:
		case r.hole(i):
			r.futures[i] = holeFuture // zeros
		default:
			lo, _ := r.part(i)
			r.futures[i] = r.start(i, lo)
		}
	}
	return r.futures[idx]
}

// part returns the bytes [lo, hi) of chunk idx that the window covers and
// the chunk stores: the window's other bytes of the slot read as zeros.
func (r *BlobReader) part(idx int64) (lo, hi int64) {
	slotLo, slotHi := chunk.SlotRange(idx, r.chunkSize)
	size := r.descs[idx-r.loIdx].Size
	return max(r.base, slotLo) - slotLo, min(r.base+r.length, slotHi, slotLo+size) - slotLo
}

// hole reports whether the window reads chunk idx as zeros alone: a hole,
// or a window part wholly past a short chunk's stored bytes.
func (r *BlobReader) hole(idx int64) bool {
	lo, hi := r.part(idx)
	return hi <= lo
}

// start launches the fetch of chunk idx's part from chunk offset lo on.
func (r *BlobReader) start(idx, lo int64) *chunkFuture {
	fctx, fcancel := context.WithCancel(r.ctx)
	f := &chunkFuture{done: make(chan struct{}), cancel: fcancel, off: lo}
	_, hi := r.part(idx)
	go func() {
		defer fcancel()
		r.fetch(fctx, idx, f, hi)
		close(f.done)
	}()
	return f
}

// fetch fetches bytes [f.off, hi) of chunk idx into f: a ranged fetch,
// unless they are the whole chunk.
func (r *BlobReader) fetch(ctx context.Context, idx int64, f *chunkFuture, hi int64) {
	d := r.descs[idx-r.loIdx]
	if f.off > 0 || hi < d.Size {
		ctx = chunk.WithRange(ctx, f.off, hi-f.off)
	}
	f.data, f.err = r.c.fetchReplica(ctx, d)
}

// await returns the window's bytes from the read position on, as far as
// one future answers for them: the fetched bytes, then zeros (a hole or a
// short chunk's tail), n bytes in all. It fetches a demand chunk itself
// under r.ctx, only its head when the part is split (see BlobReader),
// and opens the window once a whole part landed; a head's remainder and
// window open at the next call, and the first call the landed remainder
// serves offers it and the head to the chunk cache. With metrics attached
// it records one stall per call not cut short while waiting: zero (no
// clock read) when the bytes were already there, else the wait or the
// fetch.
func (r *BlobReader) await() (data []byte, n int64, err error) {
	abs := r.base + r.pos
	idx := abs / r.chunkSize
	slotLo, slotHi := chunk.SlotRange(idx, r.chunkSize)
	rel, end := abs-slotLo, min(r.base+r.length, slotHi)-slotLo
	m := r.c.m
	fut := r.ensure(idx)
	var head *chunkFuture
	if fut != nil && fut.rest != nil { // a head answers up to its remainder
		if rel < fut.rest.off {
			end = fut.rest.off
		} else {
			head, fut = fut, fut.rest
		}
	}
	if fut != nil {
		select {
		case <-fut.done:
			if m != nil {
				m.readerStall.Observe(0)
			}
			r.offerHead(idx, head, fut)
			return fut.from(rel, end), end - rel, fut.err
		default:
		}
	}
	var t0 time.Time
	if m != nil {
		t0 = r.c.now()
	}
	demand := fut == nil
	if demand {
		lo, hi := r.part(idx)
		fut = &chunkFuture{done: settled, cancel: func() {}, off: lo}
		if hi-lo >= splitMin && rel < lo+headBytes {
			fut.verify = lo == 0 && hi == r.descs[idx-r.loIdx].Size
			hi = lo + headBytes
			end = hi
			fut.rest = &chunkFuture{off: hi}
		}
		r.fetch(r.ctx, idx, fut, hi)
	} else {
		select {
		case <-r.ctx.Done():
			return nil, 0, r.ctx.Err()
		case <-fut.done:
		}
	}
	if m != nil {
		m.observe(m.readerStall, r.c.now().Sub(t0))
	}
	if demand && fut.err == nil {
		r.futures[idx] = fut
		if fut.rest == nil {
			r.ensure(idx) // a whole part landed: open the window behind it
		}
	}
	r.offerHead(idx, head, fut)
	return fut.from(rel, end), end - rel, fut.err
}

// offerHead offers a verify head of chunk idx and its landed remainder to
// the chunk cache, once. It runs on the reader's goroutine, which owns
// both buffers until the window drops the head.
func (r *BlobReader) offerHead(idx int64, head, rest *chunkFuture) {
	if head == nil || !head.verify || rest.err != nil {
		return
	}
	head.verify = false
	r.c.cache.admitHead(r.descs[idx-r.loIdx], head.data, rest.data)
}

// Read implements io.Reader. Each call serves bytes from at most one
// chunk, so large consumers should prefer WriteTo (io.Copy does).
func (r *BlobReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, ErrClosed
	}
	if r.err != nil {
		return 0, r.err
	}
	if r.pos >= r.length {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	data, n, err := r.await()
	if err != nil {
		r.err = err
		return 0, err
	}
	seg := p[:min(int64(len(p)), n)]
	// Chunk bytes first; only the hole / short-chunk tail needs zeroing.
	clear(seg[copy(seg, data):])
	r.pos += int64(len(seg))
	r.served += int64(len(seg))
	return len(seg), nil
}

// WriteTo implements io.WriterTo: it streams the remaining window into w
// chunk by chunk without materializing the whole object, keeping the
// prefetch pipeline ahead of w's consumption.
func (r *BlobReader) WriteTo(w io.Writer) (int64, error) {
	if r.closed {
		return 0, ErrClosed
	}
	if r.err != nil {
		return 0, r.err
	}
	var total int64
	for r.pos < r.length {
		data, n, err := r.await()
		if err != nil {
			r.err = err
			return total, err
		}
		// Fetched bytes first, then the zeros up to n.
		for n > 0 {
			b := data
			if len(b) == 0 {
				b = zeros[:min(n, int64(len(zeros)))]
			}
			k, werr := w.Write(b)
			total += int64(k)
			r.pos += int64(k)
			r.served += int64(k)
			if werr != nil {
				return total, werr
			}
			data, n = data[min(k, len(data)):], n-int64(k)
		}
	}
	return total, nil
}

// zeros is what WriteTo writes a hole or a short chunk's tail from; every
// reader shares it, and io.Writer's contract keeps it zero.
var zeros [64 << 10]byte

// Seek implements io.Seeker relative to the reader's window: offset 0 /
// io.SeekStart is the window start, io.SeekEnd its end. Seeking past the
// end is allowed (Read then returns io.EOF); the prefetch window follows
// the new position on the next Read.
func (r *BlobReader) Seek(offset int64, whence int) (int64, error) {
	if r.closed {
		return 0, ErrClosed
	}
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.pos + offset
	case io.SeekEnd:
		abs = r.length + offset
	default:
		return 0, fmt.Errorf("client: invalid whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("client: negative seek position %d", abs)
	}
	r.pos = abs
	return abs, nil
}

// Close cancels in-flight chunk fetches, releases the version pin (a
// reclaim queued behind it runs before Close returns) and emits the read
// event. It is idempotent.
func (r *BlobReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cancel()
	for i, f := range r.futures {
		delete(r.futures, i)
		f.drop()
	}
	if r.pinned {
		r.c.pinner.Unpin(r.blob, r.version)
	}
	if m := r.c.m; m != nil && r.served > 0 {
		m.readBytes.Add(r.served)
	}
	now := r.c.now()
	// Report the bytes actually delivered, not the window size or seek
	// position: an aborted or sparsely-consumed stream must not inflate
	// the traffic accounting the policy layer consumes.
	ev := instrument.Event{
		Time: now, Actor: instrument.ActorClient, Node: r.c.user, User: r.c.user,
		Op: instrument.OpRead, Blob: r.blob, Version: r.version,
		Offset: r.base, Bytes: r.served, Dur: now.Sub(r.started),
	}
	if r.err != nil {
		ev.Err = r.err.Error()
	}
	r.c.emit.Emit(ev)
	return nil
}

// BlobWriter streams one write. It implements io.Writer, io.ReaderFrom
// and io.Closer: bytes accumulate into the current chunk slot and every
// filled slot is flushed to its replica set in the background (bounded
// by WithWorkers); Close flushes the tail slot, waits for all flushes,
// assigns a version and publishes it. From open until it can no longer
// publish, the writer holds its base version against retention and files
// every flushed chunk under its own chunk lease; it releases both at the
// end of Close, or when its context ends before Close has begun. Not
// safe for concurrent use.
type BlobWriter struct {
	c         *Client
	ctx       context.Context
	cancel    context.CancelFunc
	blob      uint64
	chunkSize int64
	off       int64 // absolute offset the stream begins at
	op        instrument.Op
	tk        *vmanager.Ticket // pre-assigned ticket (appends); nil = assigned at Close
	started   time.Time

	cur        []byte               // buffered bytes of the current slot
	curRoom    int                  // slot bytes cur may hold (pooled caps exceed the slot)
	curStart   int64                // absolute offset of cur[0]
	total      int64                // bytes accepted so far
	placements [][]string           // batch-allocated replica sets for upcoming slots
	nextBatch  int                  // next placement-batch size (1, doubling to workers)
	base       vmanager.VersionMeta // version snapshot partial slots merge against

	sem chan struct{} // WithWorkers-sized tokens bounding in-flight flushes
	wg  sync.WaitGroup

	// The writer's protections (nil lease when open failed): a
	// version-manager hold on base.Version when it is > 0, and the chunk
	// lease every flush stores under, which also collects the providers
	// the heartbeat renews and the release reaches. releaseOnce drops
	// both once the writer can no longer publish.
	lease       *leaseRef
	releaseOnce sync.Once

	mu      sync.Mutex
	writes  map[int64]chunk.Desc
	err     error
	closed  bool
	version uint64
}

// leaseRef carries the lease the flush path stores chunks under, and
// accumulates the providers it touched so heartbeat renewals and the
// final release reach every lease site.
type leaseRef struct {
	chunk.Lease

	mu    sync.Mutex
	provs map[string]struct{}
}

func (l *leaseRef) noteProvider(pid string) {
	l.mu.Lock()
	l.provs[pid] = struct{}{}
	l.mu.Unlock()
}

func (l *leaseRef) providers() []string {
	l.mu.Lock()
	out := make([]string, 0, len(l.provs))
	for p := range l.provs {
		out = append(out, p)
	}
	l.mu.Unlock()
	return out
}

func (c *Client) newWriter(ctx context.Context, blob uint64, chunkSize, offset int64, op instrument.Op, tk *vmanager.Ticket, start time.Time) *BlobWriter {
	wctx, cancel := context.WithCancel(ctx)
	w := &BlobWriter{
		c: c, ctx: wctx, cancel: cancel,
		blob: blob, chunkSize: chunkSize, off: offset, curStart: offset,
		op: op, tk: tk, started: start,
		sem:    make(chan struct{}, c.workers),
		writes: make(map[int64]chunk.Desc),
	}
	// One base snapshot for the whole write: every partial edge slot
	// merges against the same published version, so a concurrent writer
	// publishing mid-stream cannot split this write across two bases.
	base, err := c.vm.Latest(blob)
	if err != nil {
		w.err = err
	}
	w.base = base
	// Take the writer's protections before the first byte can flush: a
	// hold on the base version against retention (version 0 — a fresh
	// BLOB — holds nothing) and the chunk lease every flush registers at
	// its providers. A failure is sticky: writing unprotected would
	// reopen exactly the reclaim races they close.
	if w.err == nil {
		w.err = w.protect()
	}
	return w
}

// protect takes the writer's base hold, mints its chunk lease and starts
// the goroutine that heartbeats the lease and releases both if the
// context ends before Close begins.
func (w *BlobWriter) protect() error {
	id, err := chunk.NewLeaseID()
	if err != nil {
		return err
	}
	if v := w.base.Version; v > 0 {
		if err := w.c.vm.HoldVersion(w.blob, v); err != nil {
			return fmt.Errorf("client: hold blob %d base v%d: %w", w.blob, v, err)
		}
	}
	w.lease = &leaseRef{Lease: chunk.Lease{ID: id}, provs: make(map[string]struct{})}
	go w.watch()
	return nil
}

// watch renews the writer's chunk leases at every provider touched so
// far, a third of the provider's default TTL apart, so a slow stream
// outlives any number of TTL windows. When the context ends it releases
// the writer's protections, unless Close has begun: Close may then be
// publishing, and it releases them itself once Publish has returned.
func (w *BlobWriter) watch() {
	t := time.NewTicker(provider.DefaultLeaseTTL / 3)
	defer t.Stop()
	for {
		select {
		case <-w.ctx.Done():
			w.mu.Lock()
			closing := w.closed
			w.mu.Unlock()
			if !closing {
				// Take every flush slot: the flushes in flight finish
				// first, and none can start after, so no Store files a
				// chunk under the lease once it is released.
				for i := 0; i < cap(w.sem); i++ {
					w.sem <- struct{}{}
				}
				w.release()
			}
			return
		case <-t.C:
		}
		for _, pid := range w.lease.providers() {
			conn, err := w.c.dir.Lookup(w.ctx, pid)
			if err != nil {
				continue // transient: the TTL spans several ticks, the next one retries
			}
			// Best effort for the same reason; nil ids = pure renewal.
			_ = conn.LeaseChunks(w.ctx, w.lease.ID, 0, nil)
		}
	}
}

// release drops the provider chunk leases and the base hold, once. It
// runs after the writer's context ended, on a context that keeps the
// caller's values without its cancellation. A release that cannot reach
// its provider leaves that lease to expire by the provider's clock.
func (w *BlobWriter) release() {
	if w.lease == nil {
		return
	}
	w.releaseOnce.Do(func() {
		ctx := context.WithoutCancel(w.ctx)
		for _, pid := range w.lease.providers() {
			conn, err := w.c.dir.Lookup(ctx, pid)
			if err != nil {
				continue
			}
			_ = conn.ReleaseLease(ctx, w.lease.ID)
		}
		if v := w.base.Version; v > 0 {
			w.c.vm.ReleaseVersion(w.blob, v)
		}
	})
}

// Version returns the published version; valid after a successful Close.
func (w *BlobWriter) Version() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.version
}

// Digest identifies what this write published: the SHA-256 over its
// slots in index order, each as (slot index, chunk ID, size). Chunk IDs
// are content hashes the flush path computed anyway, so two writes of
// the same bytes at the same offset and chunk size share a digest and
// any differing byte changes it, at the cost of hashing 48 bytes per
// slot instead of the stream a second time. It depends on the chunk
// size, as an S3 multipart ETag depends on the part size. Valid after a
// successful Close.
func (w *BlobWriter) Digest() [sha256.Size]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	idxs := make([]int64, 0, len(w.writes))
	for idx := range w.writes {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	h := sha256.New()
	var slot [8 + sha256.Size + 8]byte
	for _, idx := range idxs {
		d := w.writes[idx]
		binary.BigEndian.PutUint64(slot[:], uint64(idx))
		copy(slot[8:], d.ID[:])
		binary.BigEndian.PutUint64(slot[8+sha256.Size:], uint64(d.Size))
		h.Write(slot[:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// writable reports the sticky stream state: closed, a failed background
// flush, or a cancelled context.
func (w *BlobWriter) writable() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	return w.ctx.Err()
}

// ensureCur readies the slot buffer and sets curRoom to the bytes left
// to the current chunk slot boundary (the pooled buffer's capacity may
// exceed the slot, so the boundary is tracked explicitly). Buffers come
// from the chunk pool and go back once their flush lands.
func (w *BlobWriter) ensureCur() {
	if w.cur != nil {
		return
	}
	idx := w.curStart / w.chunkSize
	_, slotHi := chunk.SlotRange(idx, w.chunkSize)
	w.curRoom = int(slotHi - w.curStart)
	w.cur = chunk.GetBuf(w.curRoom)
}

// Write implements io.Writer.
func (w *BlobWriter) Write(p []byte) (int, error) {
	if err := w.writable(); err != nil {
		return 0, err
	}
	n := 0
	for len(p) > 0 {
		w.ensureCur()
		take := w.curRoom - len(w.cur)
		if take > len(p) {
			take = len(p)
		}
		w.cur = append(w.cur, p[:take]...)
		p = p[take:]
		n += take
		w.total += int64(take)
		if len(w.cur) == w.curRoom {
			w.flushCur()
			// flushCur may have blocked on the worker semaphore: surface a
			// cancellation or flush failure now instead of consuming the
			// rest of the stream into dropped slots.
			if err := w.writable(); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// ReadFrom implements io.ReaderFrom: it fills chunk slots directly from
// r, flushing each as it completes, so an io.Copy into the writer never
// buffers more than worker-bounded in-flight chunks.
func (w *BlobWriter) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	for {
		if err := w.writable(); err != nil {
			return total, err
		}
		w.ensureCur()
		n, err := r.Read(w.cur[len(w.cur):w.curRoom])
		if n > 0 {
			w.cur = w.cur[:len(w.cur)+n]
			w.total += int64(n)
			total += int64(n)
			if len(w.cur) == w.curRoom {
				w.flushCur()
				// Surface a cancellation or flush failure even when this
				// Read also returned io.EOF: a slot dropped by flushCur
				// must not report clean success.
				if werr := w.writable(); werr != nil {
					return total, werr
				}
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// nextPlacement pops one replica set for the next slot, refilling the
// buffer in geometrically growing batches (1 row, doubling up to
// WithWorkers): batch-aware strategies (LeastUsed, ZoneAware) spread the
// chunks of one allocation across the cluster, so per-slot single
// allocations would concentrate a whole streamed write on one replica
// set — while starting at one row keeps single-slot writes from
// allocating (and discarding) workers' worth of placements.
func (w *BlobWriter) nextPlacement() ([]string, error) {
	if len(w.placements) == 0 {
		if w.nextBatch < 1 {
			w.nextBatch = 1
		}
		rows, err := w.c.pm.Allocate(w.nextBatch, w.c.replicas)
		if err != nil {
			return nil, err
		}
		w.placements = rows
		if w.nextBatch < w.c.workers {
			w.nextBatch *= 2
			if w.nextBatch > w.c.workers {
				w.nextBatch = w.c.workers
			}
		}
	}
	row := w.placements[0]
	w.placements = w.placements[1:]
	return row, nil
}

// flushCur hands the buffered slot to a background store and starts a
// fresh slot at the next boundary. In-flight stores are bounded by the
// WithWorkers semaphore: when the pipeline is full, flushCur (and so
// Write/ReadFrom) blocks until a slot frees, keeping buffered memory at
// workers × chunk size no matter how fast the producer is. The first
// failure is sticky and cancels the writer context, aborting sibling
// transfers.
func (w *BlobWriter) flushCur() {
	data := w.cur
	start := w.curStart
	w.cur = nil
	w.curStart = start + int64(len(data))
	if len(data) == 0 {
		chunk.PutBuf(data) // an ensured-but-unfilled slot buffer
		return
	}
	targets, err := w.nextPlacement()
	if err != nil {
		chunk.PutBuf(data)
		w.mu.Lock()
		if w.err == nil {
			w.err = err
			w.cancel()
		}
		w.mu.Unlock()
		return
	}
	select {
	case w.sem <- struct{}{}:
		if m := w.c.m; m != nil {
			m.writerStall.Observe(0) // a flush slot was free: no stall
		}
	default:
		var t0 time.Time
		if w.c.m != nil {
			t0 = w.c.now()
		}
		select {
		case w.sem <- struct{}{}:
			if m := w.c.m; m != nil {
				m.observe(m.writerStall, w.c.now().Sub(t0))
			}
		case <-w.ctx.Done():
			// Cancelled: the slot is dropped; Close sees ctx.Err() and never
			// publishes, so no version can reference the missing chunk.
			chunk.PutBuf(data)
			return
		}
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer func() { <-w.sem }()
		idx, desc, err := w.c.storeSlot(w.ctx, w.blob, w.chunkSize, start, data, targets, w.base, w.lease)
		// The slot buffer is dead once the replica stores returned
		// (Conn.Store does not retain payloads): back to the pool.
		chunk.PutBuf(data)
		w.mu.Lock()
		defer w.mu.Unlock()
		if err != nil {
			// A quorum failure may still have landed some replicas: no
			// version references them, so the sweep takes them once
			// the writer's chunk lease is gone.
			if w.err == nil {
				w.err = err
				w.cancel()
			}
			return
		}
		w.writes[idx] = desc
	}()
}

// Close flushes the tail slot, waits for every background store, then
// assigns a version (unless one was pre-assigned) and publishes it. On
// failure no version is published; with a pre-assigned ticket the
// version is aborted so the publication chain keeps moving. Either way
// the writer's protections are released before Close returns. Idempotent:
// later calls return the first outcome.
func (w *BlobWriter) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()

	w.flushCur()
	w.wg.Wait()

	w.mu.Lock()
	err := w.err
	writes := w.writes
	w.mu.Unlock()
	if err == nil {
		// A context cancelled between the last flush and Close must not
		// publish either — the documented contract.
		err = w.ctx.Err()
	}

	tk := w.tk
	if err == nil && tk == nil {
		t, aerr := w.c.vm.AssignWrite(w.blob, w.c.user, w.off, w.total)
		if aerr != nil {
			err = aerr
		} else {
			tk = &t
		}
	}
	var version uint64
	if err == nil {
		if perr := w.c.vm.Publish(w.blob, tk.Version, w.c.user, writes); perr != nil {
			err = perr
		} else {
			version = tk.Version
		}
	} else if tk != nil {
		w.c.abort(*tk)
	}

	w.mu.Lock()
	w.err = err
	w.version = version
	w.mu.Unlock()

	// Published or aborted, the protections' job is done. Cancel first —
	// idempotent — so the heartbeat cannot renew what is being released.
	w.cancel()
	w.release()

	if m := w.c.m; m != nil && w.total > 0 {
		m.writeBytes.Add(w.total)
	}
	now := w.c.now()
	ev := instrument.Event{
		Time: now, Actor: instrument.ActorClient, Node: w.c.user, User: w.c.user,
		Op: w.op, Blob: w.blob, Version: version,
		Offset: w.off, Bytes: w.total, Dur: now.Sub(w.started),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	w.c.emit.Emit(ev)
	return err
}
