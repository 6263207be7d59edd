// Package diskstore implements a durable, log-structured chunk store
// behind the provider.Store seam: append-only segment files of
// checksummed records, a sparse in-memory index
// ordered by chunk ID (so List pages at O(limit + log n), honouring the
// Store.List ordered-iteration contract with what is logically a
// range scan), crash recovery by segment replay with torn-tail
// truncation, and a background compactor that rewrites segments whose
// live fraction is under a ceiling and whose age says the rest of them
// is not about to die anyway, without blocking readers.
//
// Payloads are immutable once written (chunks are content-addressed),
// so reads never take the store mutex across I/O: the index lookup
// pins the segment with a reader count, the mutex is released, and the
// payload is served with one ReadAt. Only appends — which must
// serialize with index updates in log order — run under the mutex, and
// each such call site carries an audited lockio allow annotation.
//
// A TieredStore (tiered.go) composes the lock-striped in-memory
// MemStore as a bounded hot tier over this store as the cold source of
// truth.
package diskstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/metrics"
	"blobseer/internal/provider"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("diskstore: store closed")

// Options configures a DiskStore. The zero value is usable.
type Options struct {
	// Capacity bounds live payload bytes (≤ 0 = unbounded), with the
	// same admission semantics as provider.MemStore.
	Capacity int64
	// SegmentBytes is the roll threshold for the active segment
	// (default 64 MiB). Tests use small values to force frequent rolls.
	SegmentBytes int64
	// CompactLiveFraction is the live-data fraction below which a
	// sealed segment is eligible for compaction (default 0.5): the
	// ceiling on garbage a quiet store retains. When an eligible segment
	// is actually rewritten is the compactor's cost–benefit call (see
	// compact.go).
	CompactLiveFraction float64
	// CompactEvery is the background compactor's scan period (default
	// 2s; < 0 disables the background goroutine — CompactOnce still
	// works).
	CompactEvery time.Duration
	// SyncWrites fsyncs the active segment after every append. Off by
	// default: recovery truncates torn tails, and the compactor always
	// fsyncs before dropping a victim's old copies.
	SyncWrites bool
	// Metrics, when set, publishes append/read/compaction latency and
	// recovery-time series into the registry. Nil keeps the store
	// uninstrumented (no clock reads on the data path).
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.CompactLiveFraction <= 0 {
		o.CompactLiveFraction = 0.5
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 2 * time.Second
	}
	return o
}

// entry is the index record for one live chunk.
type entry struct {
	seg      uint32 // segment holding the payload
	off      int64  // payload offset within that segment file
	size     int64  // payload bytes
	refs     int32
	epoch    uint64
	stateSeg uint32 // segment holding the latest authoritative record
}

// deadKey tracks a fully-deleted chunk whose payload record still
// exists in some live segment: the tombstone in tombSeg must outlive
// the payload record in putSeg, or replay would resurrect the chunk.
type deadKey struct {
	putSeg  uint32
	tombSeg uint32
}

// appendFile is what the store asks of a segment's append handle — an
// *os.File opened O_APPEND. Tests substitute one that fails mid-record.
type appendFile interface {
	io.Writer
	Truncate(size int64) error
	Sync() error
	Close() error
}

// segment is one log file. livePayload and stateRecs are the
// compaction accounting: how many payload bytes and how many
// authoritative state records the segment still holds.
type segment struct {
	id     uint32
	path   string
	w      appendFile // append handle; nil once sealed
	r      *os.File   // shared read handle (pread only)
	size   int64      // file bytes
	sealed time.Time  // when it stopped being the active segment: the compactor's age base

	livePayload int64
	stateRecs   int64

	readers atomic.Int32
	dead    atomic.Bool
	reaped  atomic.Bool
}

// Slotting in behind the provider seam is the whole point of the package.
var (
	_ provider.Store = (*DiskStore)(nil)
	_ provider.Store = (*TieredStore)(nil)
)

// DiskStore is a log-structured, reference-counted chunk store over a
// directory of segment files. It implements provider.Store.
type DiskStore struct {
	dir  string
	opts Options

	used  atomic.Int64 // live payload bytes (each chunk once)
	count atomic.Int64
	epoch atomic.Uint64

	mu       sync.Mutex
	idx      map[chunk.ID]entry
	ord      provider.IDIndex
	segs     map[uint32]*segment
	active   *segment
	nextSeg  uint32
	deadKeys map[chunk.ID]deadKey
	closed   bool
	hdr      [headerSize]byte // append scratch, used under mu

	kick  chan struct{}
	stopc chan struct{}
	wg    sync.WaitGroup

	m   *storeMetrics    // nil = uninstrumented
	now func() time.Time // the compactor's clock; tests substitute a fake
}

func segPath(dir string, id uint32) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.seg", id))
}

// Open opens (or creates) a store in dir, replaying every segment to
// rebuild the index. A torn record at the tail of the youngest segment
// — the only place a crash can leave one — is truncated away; damage
// anywhere else fails the open with ErrCorrupt.
func Open(dir string, opts Options) (*DiskStore, error) {
	return openAt(dir, opts, time.Now)
}

func openAt(dir string, opts Options, now func() time.Time) (*DiskStore, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &DiskStore{
		dir:      dir,
		opts:     opts,
		idx:      make(map[chunk.ID]entry),
		segs:     make(map[uint32]*segment),
		deadKeys: make(map[chunk.ID]deadKey),
		kick:     make(chan struct{}, 1),
		stopc:    make(chan struct{}),
		m:        newStoreMetrics(opts.Metrics),
		now:      now,
	}
	openStart := time.Now()
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	var ids []uint32
	for _, de := range names {
		var id uint32
		if _, err := fmt.Sscanf(de.Name(), "%08d.seg", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		if err := s.replaySegment(id, i == len(ids)-1); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	switch {
	case len(ids) == 0:
		if _, err := s.addSegment(); err != nil {
			s.closeFiles()
			return nil, err
		}
	default:
		// The youngest segment stays active: reopen its append handle
		// (replay already truncated any torn tail).
		last := s.segs[ids[len(ids)-1]]
		w, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("diskstore: reopen active: %w", err)
		}
		last.w = w
		s.active = last
		s.nextSeg = ids[len(ids)-1] + 1
	}
	if s.m != nil {
		s.m.recovery.Set(time.Since(openStart).Seconds())
		s.m.segments.Set(float64(len(s.segs)))
	}
	if opts.CompactEvery > 0 {
		s.wg.Add(1)
		go s.compactor()
	}
	return s, nil
}

// replaySegment streams one segment file, applying each verified
// record. tail marks the youngest segment, whose first damaged record
// is treated as a torn write and truncated away.
func (s *DiskStore) replaySegment(id uint32, tail bool) error {
	path := segPath(s.dir, id)
	r, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	seg := &segment{id: id, path: path, r: r}
	s.segs[id] = seg
	if id >= s.nextSeg {
		s.nextSeg = id + 1
	}
	fi, err := r.Stat()
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	// The last write is the closest a restart gets to the seal time.
	seg.sealed = fi.ModTime()
	seg.size, err = scanRecords(r, fi.Size(), func(off int64, rec *record) {
		s.apply(seg, off+headerSize, rec)
	})
	switch {
	case err == nil:
		return nil
	case !errors.Is(err, ErrCorrupt):
		return fmt.Errorf("diskstore: read %s: %w", path, err)
	case !tail:
		return fmt.Errorf("diskstore: %s at offset %d: %w", path, seg.size, err)
	}
	// A torn tail: drop it and recover everything before it.
	if err := os.Truncate(path, seg.size); err != nil {
		return fmt.Errorf("diskstore: truncate torn tail of %s: %w", path, err)
	}
	return nil
}

// scanRecords reads records from r, which holds size bytes, handing fn
// each one that verifies together with its offset. It returns the offset
// just past the last good record, and a non-nil error when it stopped
// short of size: one wrapping ErrCorrupt when the bytes there are not a
// whole valid record, the read error otherwise. A record's payload
// aliases the scan buffer and is valid only during fn. A length field is
// believed only up to the bytes the file still has, so a damaged one
// cannot size an allocation.
func scanRecords(r io.Reader, size int64, fn func(off int64, rec *record)) (int64, error) {
	var off int64
	buf := make([]byte, headerSize, headerSize+64<<10)
	for off < size {
		if size-off < headerSize {
			return off, fmt.Errorf("%w: short header", ErrCorrupt)
		}
		if _, err := io.ReadFull(r, buf[:headerSize]); err != nil {
			return off, err
		}
		rec, payloadLen, err := decodeHeader(buf[:headerSize])
		if err != nil {
			return off, err
		}
		if int64(payloadLen) > size-off-headerSize {
			return off, fmt.Errorf("%w: short payload", ErrCorrupt)
		}
		if cap(buf) < headerSize+payloadLen {
			buf = append(make([]byte, 0, headerSize+payloadLen), buf[:headerSize]...)
		}
		full := buf[:headerSize+payloadLen]
		if _, err := io.ReadFull(r, full[headerSize:]); err != nil {
			return off, err
		}
		if !verify(full) {
			return off, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
		rec.payload = full[headerSize:]
		fn(off, &rec)
		off += wireSize(payloadLen)
	}
	return off, nil
}

// apply folds one record into the index. Called single-threaded during
// replay and with mu held at runtime (after the record is appended), so
// both paths share one bookkeeping implementation. payloadOff is the
// payload's offset in seg's file. It returns the live payload bytes
// freed (non-zero only for a tombstone).
func (s *DiskStore) apply(seg *segment, payloadOff int64, rec *record) int64 {
	if e := rec.epoch; e > s.epoch.Load() {
		s.epoch.Store(e)
	}
	switch rec.typ {
	case recEpoch:
		return 0
	case recPut:
		size := int64(len(rec.payload))
		if old, ok := s.idx[rec.id]; ok {
			// A compaction rewrite (or replay of one): the payload
			// moves, the logical chunk does not.
			s.segRef(old.seg).livePayload -= old.size
			s.segRef(old.stateSeg).stateRecs--
			s.used.Add(size - old.size)
		} else {
			if dk, dead := s.deadKeys[rec.id]; dead {
				s.segRef(dk.tombSeg).stateRecs--
				delete(s.deadKeys, rec.id)
			}
			s.used.Add(size)
			s.count.Add(1)
			s.ord.Insert(rec.id)
		}
		seg.livePayload += size
		seg.stateRecs++
		s.idx[rec.id] = entry{
			seg: seg.id, off: payloadOff, size: size,
			refs: rec.refs, epoch: rec.epoch, stateSeg: seg.id,
		}
		return 0
	case recState:
		e, ok := s.idx[rec.id]
		if !ok {
			if rec.refs == 0 {
				// Tombstone for a chunk whose tombstone moved (or whose
				// payload segment is already gone): retarget or ignore.
				if dk, dead := s.deadKeys[rec.id]; dead {
					s.segRef(dk.tombSeg).stateRecs--
					dk.tombSeg = seg.id
					seg.stateRecs++
					s.deadKeys[rec.id] = dk
				}
			}
			return 0
		}
		if rec.refs > 0 {
			s.segRef(e.stateSeg).stateRecs--
			seg.stateRecs++
			e.refs, e.epoch, e.stateSeg = rec.refs, rec.epoch, seg.id
			s.idx[rec.id] = e
			return 0
		}
		// Delete-to-zero / purge: the chunk dies, the payload bytes
		// stay in their segment until compaction.
		s.segRef(e.stateSeg).stateRecs--
		s.segRef(e.seg).livePayload -= e.size
		s.used.Add(-e.size)
		s.count.Add(-1)
		s.ord.Remove(rec.id)
		delete(s.idx, rec.id)
		s.deadKeys[rec.id] = deadKey{putSeg: e.seg, tombSeg: seg.id}
		seg.stateRecs++
		return e.size
	}
	return 0
}

// segRef returns the live segment with the given id. By invariant the
// id always resolves (a segment is only dropped once no authoritative
// record references it); a throwaway is returned defensively so a
// violated invariant skews accounting instead of panicking.
func (s *DiskStore) segRef(id uint32) *segment {
	if seg, ok := s.segs[id]; ok {
		return seg
	}
	return &segment{}
}

// addSegment creates and activates the next segment file. Caller holds
// mu (or is the single-threaded Open path).
func (s *DiskStore) addSegment() (*segment, error) {
	id := s.nextSeg
	if id == 0 {
		id = 1
	}
	path := segPath(s.dir, id)
	// O_APPEND, as on the reopen path: after a failed append is truncated
	// away the next write must land at the new end of file, not at the
	// offset the failed one left behind.
	w, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskstore: create segment: %w", err)
	}
	r, err := os.Open(path)
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("diskstore: open segment: %w", err)
	}
	seg := &segment{id: id, path: path, w: w, r: r}
	s.segs[id] = seg
	if s.active != nil && s.active.w != nil {
		s.active.w.Close()
		s.active.w = nil
		s.active.sealed = s.now()
	}
	s.active = seg
	s.nextSeg = id + 1
	if s.m != nil {
		s.m.segments.Set(float64(len(s.segs)))
	}
	return seg, nil
}

// appendLocked writes one record to the active segment and returns the
// segment it landed in and its payload offset. Caller holds mu: the
// append must serialize with the index update so memory state always
// matches log order.
func (s *DiskStore) appendLocked(rec *record) (*segment, int64, error) {
	rec.encodeHeader(s.hdr[:])
	return s.writeLocked(s.hdr[:], rec.payload)
}

// writeLocked appends one encoded record — head, then tail where it
// lies, so a payload is never staged behind its header — to the active
// segment. On a write error whatever part of the record landed is
// truncated away so later appends cannot land misaligned.
func (s *DiskStore) writeLocked(head, tail []byte) (*segment, int64, error) {
	seg := s.active
	start := seg.size
	n, err := seg.w.Write(head)
	if err == nil && len(tail) > 0 {
		var m int
		m, err = seg.w.Write(tail)
		n += m
	}
	if err != nil {
		if n > 0 {
			// Best effort: a failed truncate leaves a tail that replay
			// will cut at the same place.
			_ = seg.w.Truncate(start)
		}
		return nil, 0, fmt.Errorf("diskstore: append: %w", err)
	}
	seg.size += int64(n)
	if s.opts.SyncWrites {
		if err := seg.w.Sync(); err != nil {
			return nil, 0, fmt.Errorf("diskstore: sync: %w", err)
		}
	}
	if seg.size >= s.opts.SegmentBytes {
		// Roll after the write: records never straddle segments. A
		// failed roll keeps appending to the over-full segment.
		if _, err := s.addSegment(); err != nil {
			return seg, start + headerSize, err
		}
	}
	return seg, start + headerSize, nil
}

// Put stores data under id, or re-states an already-present chunk with
// one more reference and a refreshed epoch tag (content addressing
// makes replays idempotent). Implements provider.Store.
func (s *DiskStore) Put(id chunk.ID, data []byte) error {
	if s.m == nil {
		return s.put(id, data)
	}
	t0 := time.Now()
	err := s.put(id, data)
	s.m.since(s.m.appendDur, t0)
	return err
}

func (s *DiskStore) put(id chunk.ID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	n := int64(len(data))
	rec := record{typ: recPut, refs: 1, epoch: s.epoch.Load(), id: id, payload: data}
	if e, ok := s.idx[id]; ok {
		rec.typ, rec.refs, rec.payload = recState, e.refs+1, nil
	} else if s.opts.Capacity > 0 && s.used.Load()+n > s.opts.Capacity {
		return provider.ErrFull
	}
	seg, off, err := s.appendLocked(&rec) //lockio:allow append-only log: appends must serialize with index updates in log order; payload reads run outside this mutex
	if err != nil {
		return err
	}
	s.apply(seg, off, &rec)
	if rec.typ == recPut && s.m != nil {
		s.m.putBytes.Add(n)
	}
	return nil
}

// Get returns a copy of the chunk payload.
func (s *DiskStore) Get(id chunk.ID) ([]byte, error) {
	return s.GetAppend(id, nil)
}

// GetAppend implements provider.Store: the payload is read
// into dst[:0], or into a chunk-pool buffer when dst is too small. The
// segment is pinned with a reader count while the mutex is released, so a
// concurrent compaction can unlink the file but never invalidate the
// read (the payload bytes at that offset are immutable).
func (s *DiskStore) GetAppend(id chunk.ID, dst []byte) ([]byte, error) {
	if s.m == nil {
		return s.getAppend(id, dst)
	}
	t0 := time.Now()
	out, err := s.getAppend(id, dst)
	s.m.since(s.m.readDur, t0)
	return out, err
}

func (s *DiskStore) getAppend(id chunk.ID, dst []byte) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	e, ok := s.idx[id]
	if !ok {
		s.mu.Unlock()
		return nil, provider.ErrNotFound
	}
	seg := s.segs[e.seg]
	seg.readers.Add(1)
	s.mu.Unlock()
	defer s.release(seg)

	need := int(e.size)
	if cap(dst) < need {
		dst = chunk.GetBuf(need)
	}
	dst = dst[:need]
	if _, err := seg.r.ReadAt(dst, e.off); err != nil {
		return nil, fmt.Errorf("diskstore: read chunk %s: %w", id.Short(), err)
	}
	return dst, nil
}

// release drops a segment reader pin, reaping the file if a compaction
// declared the segment dead while the read was in flight.
func (s *DiskStore) release(seg *segment) {
	if seg.readers.Add(-1) == 0 && seg.dead.Load() {
		s.reap(seg)
	}
}

// reap closes and unlinks a dead segment exactly once.
func (s *DiskStore) reap(seg *segment) {
	if !seg.reaped.CompareAndSwap(false, true) {
		return
	}
	seg.r.Close()
	_ = os.Remove(seg.path)
}

// Delete decrements the chunk's refcount, freeing it at zero. Implements
// provider.Store.
func (s *DiskStore) Delete(id chunk.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, ok := s.idx[id]
	if !ok {
		return provider.ErrNotFound
	}
	refs := e.refs - 1
	if refs < 0 {
		refs = 0
	}
	rec := record{typ: recState, refs: refs, epoch: e.epoch, id: id}
	seg, off, err := s.appendLocked(&rec) //lockio:allow append-only log: appends must serialize with index updates in log order; payload reads run outside this mutex
	if err != nil {
		return err
	}
	if s.apply(seg, off, &rec) > 0 {
		s.kickCompactor()
	}
	return nil
}

// Purge implements provider.Store: the chunk is freed
// wholesale, whatever its reference count. Purging an absent chunk
// frees 0 bytes and is not an error.
func (s *DiskStore) Purge(id chunk.ID) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	e, ok := s.idx[id]
	if !ok {
		return 0, nil
	}
	rec := record{typ: recState, refs: 0, epoch: e.epoch, id: id}
	seg, off, err := s.appendLocked(&rec) //lockio:allow append-only log: appends must serialize with index updates in log order; payload reads run outside this mutex
	if err != nil {
		return 0, err
	}
	freed := s.apply(seg, off, &rec)
	if freed > 0 {
		s.kickCompactor()
	}
	return freed, nil
}

// List implements provider.Store: one page costs
// O(limit + log n) against the always-sorted in-memory index — the
// disk is not touched at all, matching the ordered-iteration contract.
func (s *DiskStore) List(after chunk.ID, limit int) ([]provider.ChunkInfo, bool) {
	if limit <= 0 {
		limit = 1024
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.ord.Page(after, limit+1)
	more := len(ids) > limit
	if more {
		ids = ids[:limit]
	}
	out := make([]provider.ChunkInfo, len(ids))
	for i, id := range ids {
		e := s.idx[id]
		out[i] = provider.ChunkInfo{ID: id, Size: e.size, Refs: int(e.refs), Epoch: e.epoch}
	}
	return out, more
}

// Epoch implements provider.Store.
func (s *DiskStore) Epoch() uint64 { return s.epoch.Load() }

// AdvanceEpoch implements provider.Store. The new epoch is
// durable via a recEpoch record; if that append fails the advance still
// holds in memory — after a crash the epoch falls back to the highest
// tag on disk, which only widens the sweep grace window (the safe
// direction: chunks look newer, never older).
func (s *DiskStore) AdvanceEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.epoch.Add(1)
	if s.closed {
		return e
	}
	rec := record{typ: recEpoch, epoch: e}
	_, _, _ = s.appendLocked(&rec) //lockio:allow append-only log: appends must serialize with index updates in log order; payload reads run outside this mutex
	return e
}

// Has reports whether the chunk is present.
func (s *DiskStore) Has(id chunk.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idx[id]
	return ok
}

// Used returns live payload bytes (each chunk counted once).
func (s *DiskStore) Used() int64 { return s.used.Load() }

// Count returns the number of distinct live chunks.
func (s *DiskStore) Count() int { return int(s.count.Load()) }

// DiskUsage returns the total bytes of all segment files, live and
// garbage alike — the number compaction exists to bound.
func (s *DiskStore) DiskUsage() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, seg := range s.segs {
		n += seg.size
	}
	return n
}

// Segments returns the number of live segment files.
func (s *DiskStore) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}

// Sync flushes the active segment to stable storage.
func (s *DiskStore) Sync() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	w := s.active.w
	s.mu.Unlock()
	return w.Sync()
}

// Close stops the compactor and closes every file handle. Operations
// after Close fail with ErrClosed.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stopc)
	s.mu.Unlock()
	s.wg.Wait()
	// closed=true stops new operations and the compactor is drained, so
	// the handle set is frozen: snapshot it under the lock, close the
	// files outside it.
	s.mu.Lock()
	segs := make([]*segment, 0, len(s.segs))
	for _, seg := range s.segs {
		segs = append(segs, seg)
	}
	s.mu.Unlock()
	for _, seg := range segs {
		if seg.w != nil {
			seg.w.Close()
			seg.w = nil
		}
		seg.r.Close()
	}
	return nil
}

// closeFiles closes every segment handle. Caller holds mu or is the
// failed single-threaded Open path.
func (s *DiskStore) closeFiles() {
	for _, seg := range s.segs {
		if seg.w != nil {
			seg.w.Close()
			seg.w = nil
		}
		seg.r.Close()
	}
}
