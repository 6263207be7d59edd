// Package provider implements BlobSeer's data providers: the actors that
// store BLOB chunks in a distributed manner. A provider wraps a chunk
// Store with capacity accounting, writer leases, statistics and
// instrumentation taps. Chunks are shared across versions and BLOBs, but
// a store keeps no count of their users: a chunk is present or it is
// not, and only the lifecycle sweep (internal/gc), which has proven a
// chunk unreferenced, frees it by Purge.
package provider

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/ordset"
)

// Errors returned by providers and stores.
var (
	ErrNotFound = errors.New("provider: chunk not found")
	ErrFull     = errors.New("provider: capacity exceeded")
	ErrStopped  = errors.New("provider: stopped")
)

// Store is the chunk persistence contract, stated once: the data path
// (Put/GetAppend), the accounting the provider reports, and the
// lifecycle surface the storage-lifecycle subsystem (internal/gc)
// sweeps through. Implementations must be safe for concurrent use. A
// store's state per chunk is its presence: Put of an already-present
// chunk keeps the one copy and changes nothing, and Purge is the only
// way a chunk is freed.
//
// Put must not retain data past its return: the caller's slice is a pooled
// chunk buffer (the rpc server recycles it as soon as the handler is done),
// so an implementation copies or writes through — as MemStore.Put and
// DiskStore.Put both do.
//
// A store keeps no sweep clock: the provider's lease table counts the
// passes (see Provider.ReleaseLease).
type Store interface {
	Put(id chunk.ID, data []byte) error
	// GetAppend serves the payload into a caller-supplied buffer
	// (appended to dst[:0]), and into a chunk-pool buffer (chunk.GetBuf)
	// when dst is too small — never a plain allocation — so the read path
	// recycles one buffer per hop. Either way the caller owns a copy. Only
	// a dst of chunk.Borrow may instead get a read-only view of the
	// store's own memory (DiskStore's mappings), read only under
	// chunk.Guard. A view pins its segment until donated with
	// chunk.PutBuf, exactly once: dropped for the GC, it leaks the pin and
	// the segment's disk space.
	GetAppend(id chunk.ID, dst []byte) ([]byte, error)
	Has(id chunk.ID) bool
	Used() int64
	Count() int
	// List returns up to limit chunks with ID strictly greater than
	// after, in ascending ID order, and whether more remain. A zero
	// after starts from the beginning.
	//
	// Ordered-iteration contract: implementations must back List with an
	// index ordered by chunk ID, so one page costs O(limit + log n) —
	// never a scan of the whole key set. A paging caller (the garbage
	// collector sweeps inventories this way, resuming from the last ID
	// of the previous page) then pays O(n) for a full traversal, and
	// every chunk present for the whole traversal is returned exactly
	// once; chunks inserted or removed mid-traversal may or may not
	// appear, but never twice. A disk store satisfies the contract with
	// a range scan over its key order; MemStore keeps an always-sorted
	// shadow index per lock stripe.
	List(after chunk.ID, limit int) (page []ChunkInfo, more bool)
	// Purge frees a chunk, returning the payload bytes freed. Purging an
	// absent chunk is not an error (it may have gone since the sweep
	// listed it); it frees 0 bytes.
	Purge(id chunk.ID) (int64, error)
}

// ChunkInfo describes one stored chunk from the lifecycle point of view:
// its ID and payload size. The garbage collector's mark-and-sweep pass
// consumes it.
type ChunkInfo struct {
	ID   chunk.ID
	Size int64
}

// memStripes is the number of lock stripes in a MemStore. Chunk IDs are
// content hashes, so striping on the first ID byte spreads uniformly.
const memStripes = 32

// memStripe is one independently locked shard of the chunk map. The
// index shadows the data map's key set in sorted order (maintained on
// Put/Purge) so List pages without rescanning the stripe.
type memStripe struct {
	mu    sync.Mutex
	data  map[chunk.ID][]byte
	index ordset.Set[chunk.ID]
}

// MemStore is an in-memory Store with a byte-capacity bound. It is the
// store used by all examples and tests; the interface exists so a disk
// store can be dropped in. The chunk map is sharded into lock stripes
// keyed by chunk ID, so concurrent clients touching different chunks do
// not serialize on one mutex; the capacity accounting is a shared
// atomic.
type MemStore struct {
	capacity int64
	used     atomic.Int64
	count    atomic.Int64
	stripes  [memStripes]memStripe
}

// NewMemStore returns a store bounded to capacity bytes (capacity ≤ 0
// means unbounded).
func NewMemStore(capacity int64) *MemStore {
	s := &MemStore{capacity: capacity}
	for i := range s.stripes {
		s.stripes[i].data = make(map[chunk.ID][]byte)
	}
	return s
}

func (s *MemStore) stripe(id chunk.ID) *memStripe {
	return &s.stripes[int(id[0])%memStripes]
}

// Put stores a copy of data under id; a chunk already present is left
// as it is (content addressing makes replays idempotent).
func (s *MemStore) Put(id chunk.ID, data []byte) error {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.data[id]; ok {
		return nil
	}
	// Reserve the bytes first; undo on overflow. Concurrent puts may
	// transiently over-reserve, but never admit past capacity.
	n := int64(len(data))
	if v := s.used.Add(n); s.capacity > 0 && v > s.capacity {
		s.used.Add(-n)
		return ErrFull
	}
	st.data[id] = append([]byte(nil), data...)
	st.index.Insert(id)
	s.count.Add(1)
	return nil
}

// Get returns a copy of the chunk payload.
func (s *MemStore) Get(id chunk.ID) ([]byte, error) {
	return s.GetAppend(id, nil)
}

// GetAppend implements Store: the payload copy is appended to dst[:0],
// or to a chunk-pool buffer when dst is too small.
func (s *MemStore) GetAppend(id chunk.ID, dst []byte) ([]byte, error) {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	d, ok := st.data[id]
	if !ok {
		return nil, ErrNotFound
	}
	if cap(dst) < len(d) {
		dst = chunk.GetBuf(len(d))
	}
	return append(dst[:0], d...), nil
}

// Purge implements Store: the chunk is freed — the sweep, not
// per-operation bookkeeping, is the source of truth for liveness.
func (s *MemStore) Purge(id chunk.ID) (int64, error) {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	d, ok := st.data[id]
	if !ok {
		return 0, nil
	}
	n := int64(len(d))
	s.used.Add(-n)
	s.count.Add(-1)
	delete(st.data, id)
	st.index.Remove(id)
	return n, nil
}

// List implements Store. Pages are in ascending ID order, so a
// caller resuming from the last ID of the previous page sees every chunk
// that existed for the whole scan exactly once.
//
// One page costs O(limit + log n): IDs sort by first byte before
// anything else and the stripe of an ID is a pure function of that byte,
// so the global ascending order decomposes into 256 first-byte segments,
// each wholly inside one stripe's always-sorted index. The page walks
// segments in order, binary-searching only the stripes that contribute
// keys — no cross-stripe merge and no rescan of the resident set.
func (s *MemStore) List(after chunk.ID, limit int) ([]ChunkInfo, bool) {
	if limit <= 0 {
		limit = 1024
	}
	want := limit + 1 // one extra key proves whether more remain
	out := make([]ChunkInfo, 0, min(want, 4096))
	for b := int(after[0]); b < 256 && len(out) < want; b++ {
		// Seek from after in its own segment, else from the largest ID
		// below segment b.
		from := after
		if b > int(after[0]) {
			from = chunk.ID{byte(b - 1)}
			for i := 1; i < len(from); i++ {
				from[i] = 0xff
			}
		}
		st := &s.stripes[b%memStripes]
		st.mu.Lock()
	segment:
		for cur, rest := st.index.Seek(from); ; cur, rest = rest[0], rest[1:] {
			for _, id := range cur {
				if id[0] != byte(b) || len(out) == want {
					break segment // past the segment: later keys only grow
				}
				out = append(out, ChunkInfo{ID: id, Size: int64(len(st.data[id]))})
			}
			if len(rest) == 0 {
				break
			}
		}
		st.mu.Unlock()
	}
	if len(out) > limit {
		return out[:limit:limit], true
	}
	return out, false
}

// Has reports whether the chunk is present.
func (s *MemStore) Has(id chunk.ID) bool {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.data[id]
	return ok
}

// Used returns the stored payload bytes (each chunk counted once).
func (s *MemStore) Used() int64 { return s.used.Load() }

// Count returns the number of distinct chunks.
func (s *MemStore) Count() int { return int(s.count.Load()) }

// Stats is a snapshot of a provider's activity counters. Deletes
// counts the chunks PurgeChunks freed, the only way a provider frees one.
type Stats struct {
	Stores, Fetches, Deletes int64
	BytesIn, BytesOut        int64
	Active                   int   // in-flight operations
	Used, Capacity           int64 // bytes
	Chunks                   int
}

// API is one data provider as every other actor sees it, stated once:
// *Provider implements it in process and *rpc.Conn over the wire, so
// the lifecycle manager, the replicator and the fault plane address a
// provider the same way on either plane. Its first four methods are the
// client's data path (client.Conn is exactly that subset); the rest is
// the control surface the lifecycle sweep and replica maintenance use.
// Every method is context-first and fails with ErrStopped on a stopped
// provider.
type API interface {
	Store(ctx context.Context, user string, id chunk.ID, data []byte) error
	Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error)
	LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error
	ReleaseLease(ctx context.Context, leaseID string) error
	// ListChunks returns one inventory page: up to limit chunks with ID
	// strictly greater than after, ascending, plus whether more remain.
	ListChunks(ctx context.Context, after chunk.ID, limit int) ([]ChunkInfo, bool, error)
	// PurgeChunks frees chunks and reports how many were present and
	// the bytes freed. A chunk under a live writer lease, or under one
	// released within the last two epochs, is skipped: the writer's
	// chunk lease is the one write-in-progress protection.
	PurgeChunks(ctx context.Context, ids []chunk.ID) (int, int64, error)
	// AdvanceEpoch counts one sweep pass on the provider's lease clock
	// and returns the new epoch.
	AdvanceEpoch(ctx context.Context) (uint64, error)
}

var (
	_ API   = (*Provider)(nil)
	_ Store = (*MemStore)(nil)
)

// Provider is one data-provider actor. Its activity counters are
// atomics so concurrent transfers never serialize on a provider-wide
// lock (the store below is lock-striped for the same reason).
type Provider struct {
	id   string
	zone string
	cap  int64
	st   Store
	emit instrument.Emitter
	m    *provMetrics // nil = uninstrumented
	now  func() time.Time

	stopped atomic.Bool
	stores  atomic.Int64
	fetches atomic.Int64
	deletes atomic.Int64
	bytesIn atomic.Int64
	bytesUp atomic.Int64
	active  atomic.Int64

	leases leaseTable // writer leases; consulted by PurgeChunks
}

// Option configures a Provider.
type Option func(*Provider)

// WithEmitter attaches an instrumentation emitter.
func WithEmitter(e instrument.Emitter) Option {
	return func(p *Provider) {
		if e != nil {
			p.emit = e
		}
	}
}

// WithClock overrides the time source (used under simulation).
func WithClock(now func() time.Time) Option {
	return func(p *Provider) {
		if now != nil {
			p.now = now
		}
	}
}

// WithStore overrides the backing store.
func WithStore(s Store) Option {
	return func(p *Provider) {
		if s != nil {
			p.st = s
		}
	}
}

// New returns a provider with the given identity, zone (site name in
// Grid'5000 terms) and capacity in bytes (≤ 0 means unbounded).
func New(id, zone string, capacity int64, opts ...Option) *Provider {
	p := &Provider{
		id:   id,
		zone: zone,
		cap:  capacity,
		st:   NewMemStore(capacity),
		emit: instrument.Nop{},
		now:  time.Now,
	}
	p.leases.init()
	for _, o := range opts {
		o(p)
	}
	return p
}

// ID returns the provider identity.
func (p *Provider) ID() string { return p.id }

// Stop marks the provider as stopped; subsequent operations fail with
// ErrStopped. Used by elasticity (pool contraction) and failure injection.
func (p *Provider) Stop() {
	p.stopped.Store(true)
	p.emit.Emit(instrument.Event{
		Time: p.now(), Actor: instrument.ActorProvider, Node: p.id, Op: instrument.OpLeave,
	})
}

// Stopped reports whether the provider has been stopped.
func (p *Provider) Stopped() bool { return p.stopped.Load() }

// Restart clears the stopped flag (failure-recovery testing).
func (p *Provider) Restart() {
	p.stopped.Store(false)
	p.emit.Emit(instrument.Event{
		Time: p.now(), Actor: instrument.ActorProvider, Node: p.id, Op: instrument.OpJoin,
	})
}

func (p *Provider) begin(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.stopped.Load() {
		return ErrStopped
	}
	p.active.Add(1)
	return nil
}

func (p *Provider) end() {
	p.active.Add(-1)
}

// Store persists one chunk replica on behalf of user. A cancelled ctx
// rejects the transfer before it touches the store. A writer lease ctx
// carries (chunk.WithLease; over the wire, the Store frame's) registers
// the chunk first, ordered against in-flight purges as LeaseChunks is.
func (p *Provider) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	start := p.now()
	if err := p.begin(ctx); err != nil {
		return err
	}
	defer p.end()
	if l := chunk.LeaseFrom(ctx); l != nil {
		if err := p.LeaseChunks(ctx, l.ID, l.TTL, []chunk.ID{id}); err != nil {
			return err
		}
	}
	err := p.st.Put(id, data)
	p.stores.Add(1)
	if err == nil {
		p.bytesIn.Add(int64(len(data)))
	}
	if p.m != nil {
		p.m.observe(p.m.storeOK, p.m.storeErr, p.now().Sub(start), err)
	}
	ev := instrument.Event{
		Time: p.now(), Actor: instrument.ActorProvider, Node: p.id, User: user,
		Op: instrument.OpStore, Bytes: int64(len(data)), Dur: p.now().Sub(start),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	p.emit.Emit(ev)
	return err
}

// Fetch returns one chunk replica on behalf of user, in a chunk-pool
// buffer the caller owns (Store.GetAppend), so callers donate it with
// chunk.PutBuf once the payload is dead; only a ctx that takes loans
// (chunk.LoanKey, the rpc server's) reads the store with chunk.Borrow and
// may get a lent view instead. A range
// in ctx (chunk.WithRange) returns only those bytes of the chunk, clamped
// to it: sliced out of a view, or moved to the front of a pool buffer, so
// the caller's PutBuf still files all of it. A cancelled ctx rejects the
// transfer before it touches the store.
func (p *Provider) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	start := p.now()
	if err := p.begin(ctx); err != nil {
		return nil, err
	}
	defer p.end()
	var dst []byte
	if chunk.Loaned(ctx) {
		dst = chunk.Borrow()
	}
	data, err := p.st.GetAppend(id, dst)
	if off, n := chunk.RangeFrom(ctx); n > 0 && err == nil {
		off = min(off, int64(len(data)))
		n = min(n, int64(len(data))-off)
		if chunk.Lent(data) {
			data = data[off : off+n]
		} else {
			data = data[:copy(data, data[off:off+n])]
		}
	}
	p.fetches.Add(1)
	if err == nil {
		p.bytesUp.Add(int64(len(data)))
	}
	if p.m != nil {
		p.m.observe(p.m.fetchOK, p.m.fetchErr, p.now().Sub(start), err)
	}
	ev := instrument.Event{
		Time: p.now(), Actor: instrument.ActorProvider, Node: p.id, User: user,
		Op: instrument.OpFetch, Bytes: int64(len(data)), Dur: p.now().Sub(start),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	p.emit.Emit(ev)
	return data, err
}

// ListChunks returns one page of the provider's chunk inventory for the
// sweep: up to limit chunks with ID > after in ascending order, plus
// whether more remain.
func (p *Provider) ListChunks(ctx context.Context, after chunk.ID, limit int) ([]ChunkInfo, bool, error) {
	if err := p.begin(ctx); err != nil {
		return nil, false, err
	}
	defer p.end()
	page, more := p.st.List(after, limit)
	return page, more, nil
}

// PurgeChunks frees the given chunks, returning how many were present
// and the bytes freed. Only the garbage collector's sweep — which has
// proven the chunks unreferenced — may call it. Chunks protected by a
// writer lease (live, or released less than two epochs ago) are
// skipped: this is the one lease check, made at the moment of the
// purge, so it sees every lease registered before it. Each purge is also ordered
// against racing lease registrations, so a re-put under a fresh lease
// can never be eaten by an already-classified victim's purge.
func (p *Provider) PurgeChunks(ctx context.Context, ids []chunk.ID) (int, int64, error) {
	if err := p.begin(ctx); err != nil {
		return 0, 0, err
	}
	defer p.end()
	var purged int
	var freed int64
	for _, id := range ids {
		n, err := p.leases.purge(id, p.now(), func() (int64, error) { return p.st.Purge(id) })
		if err != nil {
			return purged, freed, err
		}
		if n > 0 {
			purged++
			freed += n
			p.deletes.Add(1)
		}
	}
	if purged > 0 {
		p.emit.Emit(instrument.Event{
			Time: p.now(), Actor: instrument.ActorProvider, Node: p.id,
			Op: instrument.OpSweep, Bytes: freed, Value: float64(purged),
		})
	}
	return purged, freed, nil
}

// AdvanceEpoch moves the lease table to the next sweep epoch and returns
// it, dropping the released writer leases whose retirement epoch has come
// and the live ones that expired by the provider's clock — a crashed
// writer's lease lasts at most until the next sweep pass after its TTL.
// A stopped provider refuses: a sweep must not retire a provider's
// leases while it cannot answer for them.
func (p *Provider) AdvanceEpoch(ctx context.Context) (uint64, error) {
	if err := p.begin(ctx); err != nil {
		return 0, err
	}
	defer p.end()
	return p.leases.advance(p.now()), nil
}

// Has reports whether the provider holds the chunk.
func (p *Provider) Has(id chunk.ID) bool { return p.st.Has(id) }

// Used returns stored bytes.
func (p *Provider) Used() int64 { return p.st.Used() }

// Free returns remaining capacity, or -1 when unbounded.
func (p *Provider) Free() int64 {
	if p.cap <= 0 {
		return -1
	}
	f := p.cap - p.st.Used()
	if f < 0 {
		f = 0
	}
	return f
}

// Stats returns a snapshot of activity counters.
func (p *Provider) Stats() Stats {
	return Stats{
		Stores: p.stores.Load(), Fetches: p.fetches.Load(), Deletes: p.deletes.Load(),
		BytesIn: p.bytesIn.Load(), BytesOut: p.bytesUp.Load(),
		Active: int(p.active.Load()), Used: p.st.Used(), Capacity: p.cap, Chunks: p.st.Count(),
	}
}

// ReportPhysical emits the periodic physical-parameter samples the
// monitoring layer collects (disk space, active connections) and sets the
// used-bytes and chunk-count gauges from the same reading. cpu and mem
// are externally measured utilizations in [0,1].
func (p *Provider) ReportPhysical(cpu, mem float64) {
	now := p.now()
	active := p.active.Load()
	used := p.st.Used()
	if p.m != nil {
		p.m.used.Set(float64(used))
		p.m.chunks.Set(float64(p.st.Count()))
	}
	base := instrument.Event{Time: now, Actor: instrument.ActorProvider, Node: p.id}
	for _, s := range []struct {
		op instrument.Op
		v  float64
	}{
		{instrument.OpCPULoad, cpu},
		{instrument.OpMemUsage, mem},
		{instrument.OpDiskSpace, float64(used)},
		{instrument.OpActiveConn, float64(active)},
	} {
		ev := base
		ev.Op = s.op
		ev.Value = s.v
		p.emit.Emit(ev)
	}
}

// String implements fmt.Stringer.
func (p *Provider) String() string {
	return fmt.Sprintf("provider(%s zone=%s used=%d)", p.id, p.zone, p.Used())
}
