// Package client implements the BlobSeer client actor: the interface user
// applications call to create BLOBs, read ranges, write and append. It
// coordinates the version manager (tickets and publication), the provider
// manager (chunk placement) and the data providers (chunk transfer).
//
// The surface is context-first and streaming: Open returns a Blob handle
// whose NewReader/NewWriter stream chunk-granular data with pipelined
// prefetch and background replica flushes (see blob.go). The []byte
// Read/Write/Append are one-shot conveniences over the same streaming
// core.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/pmanager"
	"blobseer/internal/vmanager"
)

// Errors returned by the client.
var (
	ErrBlocked     = errors.New("client: user is blocked by the security framework")
	ErrNoReplica   = errors.New("client: replica stores fell short of the write quorum")
	ErrUnavailable = errors.New("client: all replicas unavailable")
	ErrShortRead   = errors.New("client: range extends past blob size")
	ErrClosed      = errors.New("client: stream is closed")
)

// Conn is the client's view of one data provider. Transfers are
// context-first: a cancelled ctx must abort the transfer (or the wait for
// it) promptly.
//
// Buffer ownership, stated once for every plane: Store must not retain
// data after it returns — the caller recycles the slice at once. Fetch
// returns a buffer the caller owns; implementations draw it from the
// shared chunk pool (chunk.GetBuf) and the caller donates it back with
// chunk.PutBuf once the payload is dead, or drops it for the GC. A Conn
// that retained either slice would see it overwritten by a later
// transfer.
//
// Writer leases: a leasing writer registers each chunk ID under its
// lease at the provider (LeaseChunks) before storing it, renews with nil
// ids, and releases when it finishes. While a lease is live the
// provider's wholesale purge and the GC's victim classification skip its
// chunks. A Conn that wraps another forwards both calls — a wrapper that
// swallowed them would leave the writers behind it with the grace window
// as their only protection.
type Conn interface {
	Store(ctx context.Context, user string, id chunk.ID, data []byte) error
	Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error)
	LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error
	ReleaseLease(ctx context.Context, leaseID string) error
}

// Directory resolves provider IDs to connections; the real plane resolves
// to in-process providers or RPC stubs, the S3 gateway shares one.
type Directory interface {
	Lookup(ctx context.Context, providerID string) (Conn, error)
}

// DirectoryFunc adapts a function to Directory.
type DirectoryFunc func(context.Context, string) (Conn, error)

// Lookup implements Directory.
func (f DirectoryFunc) Lookup(ctx context.Context, id string) (Conn, error) {
	return f(ctx, id)
}

// Gatekeeper is the feedback hook of the security framework: every client
// operation is admitted through it, so policy enforcement (blocking,
// throttling) takes effect on the data path.
type Gatekeeper interface {
	Allow(ctx context.Context, user string, op instrument.Op) error
}

// AllowAll is the default gatekeeper.
type AllowAll struct{}

// Allow always admits.
func (AllowAll) Allow(context.Context, string, instrument.Op) error { return nil }

// Pinner is the storage-lifecycle hook streaming readers pin versions
// through: Pin is called once the read version is resolved — with its
// tree's root, which nobody could derive any more were the version
// retired under the pin — and must fail if the BLOB is already deleted;
// Unpin releases on Close. While a pin
// is held the lifecycle layer defers chunk reclamation of the version,
// so a concurrent delete or overwrite cannot truncate the stream.
type Pinner interface {
	Pin(blob uint64, root blobmeta.Root) error
	Unpin(blob, version uint64)
}

// DefaultLeaseTTL is the writer-lease lifetime used when WithLeaseTTL
// is not given; the writer heartbeats at a fraction of it.
const DefaultLeaseTTL = 30 * time.Second

// Lease is one writer's registration with the storage-lifecycle layer,
// minted by a Leaser at NewWriter time. Its ID also names the chunk
// leases the writer registers at each provider (Conn.LeaseChunks), so one
// identity protects the base version and the flushed chunks. Renew
// pushes the expiry out (heartbeat); Release ends the lease and must be
// called on every writer exit path — a lease that is never released
// lives until its TTL lapses and the next sweep reaps it.
type Lease interface {
	ID() string
	Renew()
	Release()
}

// Leaser mints writer leases: called by NewWriter with the writer's
// BLOB and base-version snapshot (0 for a fresh BLOB). The lifecycle
// manager implements it (via core's wiring); while the lease lives,
// retention will not retire the base version a partial-slot merge still
// reads.
type Leaser interface {
	OpenLease(blob, baseVersion uint64) (Lease, error)
}

// Client is a BlobSeer client bound to one user identity.
type Client struct {
	user     string
	vm       *vmanager.Manager
	pm       *pmanager.Manager
	dir      Directory
	gate     Gatekeeper
	pinner   Pinner
	leaser   Leaser
	leaseTTL time.Duration
	emit     instrument.Emitter
	m        *pathMetrics // nil = uninstrumented
	now      func() time.Time
	replicas int
	workers  int
	prefetch int                          // chunks a BlobReader keeps in flight (window)
	quorum   int                          // successful replica stores required per chunk (0 = all)
	hedged   bool                         // fetch all replicas concurrently, first success wins
	healthy  func(providerID string) bool // nil = all replicas equal
}

// Option configures a Client.
type Option func(*Client)

// WithReplicas sets the replication degree for new chunks (default 1).
func WithReplicas(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.replicas = n
		}
	}
}

// WithGatekeeper installs the security-enforcement hook.
func WithGatekeeper(g Gatekeeper) Option {
	return func(c *Client) {
		if g != nil {
			c.gate = g
		}
	}
}

// WithPinner installs the storage-lifecycle pin hook: every reader the
// client mints pins its (blob, version) for the stream's lifetime
// (default: no pinning).
func WithPinner(p Pinner) Option {
	return func(c *Client) { c.pinner = p }
}

// WithLeaser installs the writer-lease hook: every BlobWriter the
// client mints registers a lease at open, leases each flushed chunk at
// its providers, heartbeats while streaming, and releases at
// Close/abandon (default: no leasing; the GC grace window is then the
// only writer protection).
func WithLeaser(l Leaser) Option {
	return func(c *Client) { c.leaser = l }
}

// WithLeaseTTL sets the writer-lease lifetime the client requests and
// heartbeats against (default DefaultLeaseTTL). It must match the
// lifecycle manager's TTL order of magnitude: a TTL shorter than the
// heartbeat interval would let live writers be reaped.
func WithLeaseTTL(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.leaseTTL = d
		}
	}
}

// WithEmitter attaches instrumentation.
func WithEmitter(e instrument.Emitter) Option {
	return func(c *Client) {
		if e != nil {
			c.emit = e
		}
	}
}

// WithClock overrides the time source.
func WithClock(now func() time.Time) Option {
	return func(c *Client) {
		if now != nil {
			c.now = now
		}
	}
}

// WithWorkers bounds parallel chunk transfers (default 8). Each
// in-flight chunk additionally fans its replica stores out in
// parallel, so concurrent provider operations can reach
// workers × replicas.
func WithWorkers(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithPrefetch bounds how many chunks a BlobReader keeps in flight,
// current chunk included (default 4). A larger window hides more
// per-chunk latency at the cost of memory proportional to
// window × chunk size.
func WithPrefetch(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.prefetch = n
		}
	}
}

// WithWriteQuorum sets how many replica stores must succeed for each
// chunk before a write publishes (default: all replicas). Replicas are
// always attempted in parallel on every placement target; a quorum below
// the replication degree only relaxes how many must land, trading
// durability for availability under provider failures.
func WithWriteQuorum(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.quorum = n
		}
	}
}

// WithHedgedReads makes fetchReplica race all replicas of a chunk
// concurrently and return the first success, instead of the default
// serial failover. Hedging trades provider load for tail latency.
func WithHedgedReads(on bool) Option {
	return func(c *Client) { c.hedged = on }
}

// WithHealth attaches an external health verdict (the fault-tolerance
// plane's breaker + failure detector). Reads try healthy replicas
// first: serial failover reorders its attempts, hedged races run over
// the healthy subset only — falling back to the full replica set when
// no replica is healthy, so degraded data is still better than none.
func WithHealth(healthy func(providerID string) bool) Option {
	return func(c *Client) { c.healthy = healthy }
}

// New returns a client for user backed by the given actors.
func New(user string, vm *vmanager.Manager, pm *pmanager.Manager, dir Directory, opts ...Option) *Client {
	c := &Client{
		user: user, vm: vm, pm: pm, dir: dir,
		gate: AllowAll{}, emit: instrument.Nop{}, now: time.Now,
		replicas: 1, workers: 8, prefetch: 4,
		leaseTTL: DefaultLeaseTTL,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// User returns the client identity.
func (c *Client) User() string { return c.user }

// Create makes a new BLOB with the given chunk size (0 = default).
func (c *Client) Create(ctx context.Context, chunkSize int64) (vmanager.BlobInfo, error) {
	if err := c.gate.Allow(ctx, c.user, instrument.OpCreate); err != nil {
		return vmanager.BlobInfo{}, err
	}
	info, err := c.vm.Create(c.user, chunkSize, false)
	c.event(instrument.OpCreate, info.ID, 0, 0, 0, err)
	return info, err
}

// CreateTemporary makes a BLOB flagged for the temporary-data removal
// strategy.
func (c *Client) CreateTemporary(ctx context.Context, chunkSize int64) (vmanager.BlobInfo, error) {
	if err := c.gate.Allow(ctx, c.user, instrument.OpCreate); err != nil {
		return vmanager.BlobInfo{}, err
	}
	info, err := c.vm.Create(c.user, chunkSize, true)
	c.event(instrument.OpCreate, info.ID, 0, 0, 0, err)
	return info, err
}

// Open returns a handle on an existing BLOB. The handle is cheap — it
// carries the immutable BLOB metadata (chunk size) and mints streaming
// readers and writers.
func (c *Client) Open(ctx context.Context, blob uint64) (*Blob, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	info, err := c.vm.Info(blob)
	if err != nil {
		return nil, err
	}
	return &Blob{c: c, info: info}, nil
}

// Write stores data at the given offset and returns the published
// version: a one-shot streaming BlobWriter. A cancelled ctx aborts
// in-flight chunk transfers and leaves the BLOB unpublished.
func (c *Client) Write(ctx context.Context, blob uint64, offset int64, data []byte) (uint64, error) {
	start := c.now()
	// Admission is checked here, not via Blob.NewWriter, so a denial
	// event carries the attempted byte volume — byte-rate policy rules
	// must keep seeing the pressure of blocked writers.
	if err := c.gate.Allow(ctx, c.user, instrument.OpWrite); err != nil {
		c.event(instrument.OpWrite, blob, 0, offset, int64(len(data)), err)
		return 0, err
	}
	if offset < 0 {
		return 0, fmt.Errorf("client: negative offset %d", offset)
	}
	b, err := c.Open(ctx, blob)
	if err != nil {
		return 0, err
	}
	w := c.newWriter(ctx, blob, b.info.ChunkSize, offset, instrument.OpWrite, nil, start)
	if _, werr := w.Write(data); werr != nil {
		_ = w.Close()
		return 0, werr
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Version(), nil
}

// Append stores data at the BLOB's end and returns the published
// version: a one-shot streaming BlobWriter bound to an append ticket.
func (c *Client) Append(ctx context.Context, blob uint64, data []byte) (uint64, error) {
	start := c.now()
	if err := c.gate.Allow(ctx, c.user, instrument.OpAppend); err != nil {
		c.event(instrument.OpAppend, blob, 0, 0, int64(len(data)), err)
		return 0, err
	}
	tk, err := c.vm.AssignAppend(blob, c.user, int64(len(data)))
	if err != nil {
		return 0, err
	}
	w := c.newWriter(ctx, blob, tk.ChunkSize, tk.Offset, instrument.OpAppend, &tk, start)
	if _, werr := w.Write(data); werr != nil {
		_ = w.Close()
		return 0, werr
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Version(), nil
}

// Read returns length bytes at offset from the given version (0 =
// latest published): a one-shot streaming BlobReader. Holes read as
// zeros; reads past the version size fail with ErrShortRead; a
// cancelled ctx aborts in-flight chunk fetches. Unlike NewReader, a
// negative length is an error here, not a to-the-end request.
func (c *Client) Read(ctx context.Context, blob uint64, version uint64, offset, length int64) ([]byte, error) {
	if length < 0 {
		return nil, fmt.Errorf("%w: negative length %d", ErrShortRead, length)
	}
	b, err := c.Open(ctx, blob)
	if err != nil {
		return nil, err
	}
	r, err := b.NewReader(ctx, version, offset, length)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := make([]byte, length)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Size returns the size of a version (0 = latest).
func (c *Client) Size(blob, version uint64) (int64, error) {
	vm, err := c.resolveVersion(blob, version)
	if err != nil {
		return 0, err
	}
	return vm.Size, nil
}

// Latest returns the latest published version number.
func (c *Client) Latest(blob uint64) (uint64, error) {
	vm, err := c.vm.Latest(blob)
	if err != nil {
		return 0, err
	}
	return vm.Version, nil
}

func (c *Client) resolveVersion(blob, version uint64) (vmanager.VersionMeta, error) {
	if version == 0 {
		return c.vm.Latest(blob)
	}
	return c.vm.Version(blob, version)
}

// storeReplicas pushes one chunk to every placement target in parallel
// and returns the providers that accepted it, in placement order
// (primary first). It fails when fewer than the write quorum landed,
// wrapping the per-replica causes — lookup failures included — so a
// fully failed chunk reports why. Even on failure the providers that did
// accept the chunk are returned, so callers can reclaim the stranded
// replicas.
//
// When lease is non-nil, the chunk ID is registered under the writer's
// lease at each target before the Store: registration is ordered
// against in-flight purges at the provider, so by the time the Store
// runs, a sweep that already classified an identical chunk as a victim
// has either finished purging it (the Store recreates it) or will skip
// it as leased. A lease failure counts as that replica failing — an
// unleased replica of a still-unpublished chunk is exactly the exposure
// leases exist to close.
func (c *Client) storeReplicas(ctx context.Context, id chunk.ID, data []byte, targets []string, lease *leaseRef) ([]string, error) {
	need := c.quorum
	if need <= 0 || need > len(targets) {
		need = len(targets)
	}
	var start time.Time
	var okCount atomic.Int64
	if c.m != nil {
		start = c.now()
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for k, pid := range targets {
		wg.Add(1)
		go func(k int, pid string) {
			defer wg.Done()
			conn, err := c.dir.Lookup(ctx, pid)
			if err != nil {
				errs[k] = fmt.Errorf("lookup %s: %w", pid, err)
				return
			}
			if lease != nil {
				if err := conn.LeaseChunks(ctx, lease.id, lease.ttl, []chunk.ID{id}); err != nil {
					errs[k] = fmt.Errorf("lease %s: %w", pid, err)
					return
				}
				lease.noteProvider(pid)
			}
			if err := conn.Store(ctx, c.user, id, data); err != nil {
				errs[k] = fmt.Errorf("store %s: %w", pid, err)
				return
			}
			// The quorum-th landing replica is the moment a quorum write
			// could publish; everything past it is replication slack.
			if c.m != nil && int(okCount.Add(1)) == need {
				c.m.observe(c.m.quorumWait, c.now().Sub(start))
			}
		}(k, pid)
	}
	wg.Wait()
	stored := make([]string, 0, len(targets))
	for k := range targets {
		if errs[k] == nil {
			stored = append(stored, targets[k])
		}
	}
	if len(stored) < need {
		if c.m != nil {
			c.m.observe(c.m.storeErr, c.now().Sub(start))
		}
		return stored, fmt.Errorf("%w: %d/%d replicas stored, quorum %d: %w",
			ErrNoReplica, len(stored), len(targets), need, errors.Join(errs...))
	}
	if c.m != nil {
		c.m.observe(c.m.storeOK, c.now().Sub(start))
	}
	return stored, nil
}

// storeSlot stores the chunk slot beginning at absolute byte offset
// start onto the given placement targets. Partial slots (a head slot
// entered mid-way, or a tail slot that does not reach the slot end) are
// first merged over the slot's current content from the latest published
// version, so the stored chunk always begins at its slot base. Returns
// the slot index and the published descriptor. baseVer is the version
// snapshot partial slots merge against — one snapshot per write, so the
// write's edge slots cannot mix two different bases.
func (c *Client) storeSlot(ctx context.Context, blob uint64, chunkSize, start int64, data []byte, targets []string, baseVer vmanager.VersionMeta, lease *leaseRef) (int64, chunk.Desc, error) {
	idx := start / chunkSize
	slotLo, _ := chunk.SlotRange(idx, chunkSize)
	within := start - slotLo
	if within != 0 || int64(len(data)) != chunkSize {
		base, err := c.baseSlot(ctx, blob, chunkSize, idx, baseVer)
		if err != nil {
			return 0, chunk.Desc{}, fmt.Errorf("chunk %d: %w", idx, err)
		}
		// A tail slot with no base content already starts at its slot
		// base — store it as-is, no merge copy needed.
		if within != 0 || len(base) != 0 {
			valid := within + int64(len(data))
			if int64(len(base)) > valid {
				valid = int64(len(base))
			}
			// valid ≤ chunkSize always; size the merge buffer to the
			// content, not the chunk — a small object must not claim a
			// whole slot. The buffer is pooled: stale bytes between the
			// base content and the write must be zeroed by hand (a fresh
			// allocation got that for free).
			buf := chunk.GetBuf(int(valid))[:valid]
			n := copy(buf, base)
			if int64(n) < within {
				clear(buf[n:within])
			}
			copy(buf[within:], data)
			chunk.PutBuf(base)
			data = buf
			// Dead once the replica stores return: Conn.Store must not
			// retain its payload.
			defer chunk.PutBuf(buf)
		}
	}
	id := chunk.Sum(data)
	stored, err := c.storeReplicas(ctx, id, data, targets, lease)
	if err != nil {
		// Report the replicas that did land so the writer can track them
		// for reclamation: a failed slot never publishes, so nothing else
		// will ever reference — or free — them.
		return 0, chunk.Desc{ID: id, Size: int64(len(data)), Providers: stored}, fmt.Errorf("chunk %d: %w", idx, err)
	}
	return idx, chunk.Desc{ID: id, Size: int64(len(data)), Providers: stored}, nil
}

// baseSlot reads the current content of one chunk slot from the given
// version snapshot: nil when the version ends before the slot or no
// version exists, otherwise the slot's existing bytes (shorter than the
// chunk size at the BLOB's tail).
func (c *Client) baseSlot(ctx context.Context, blob uint64, chunkSize, idx int64, base vmanager.VersionMeta) ([]byte, error) {
	slotLo, _ := chunk.SlotRange(idx, chunkSize)
	if base.Version == 0 || slotLo >= base.Size {
		return nil, nil
	}
	baseLen := chunkSize
	if base.Size-slotLo < baseLen {
		baseLen = base.Size - slotLo
	}
	tree, err := c.vm.Tree(blob)
	if err != nil {
		return nil, err
	}
	descs, err := tree.Read(tree.Root(base.Version, base.Size), idx, idx+1)
	if err != nil {
		return nil, err
	}
	// Pooled (the caller PutBufs it after merging). A chunk that fills
	// the slot's share of the base is handed over as fetched; a hole slot
	// or a short chunk reads as zeros, so it is copied into scratch and
	// whatever the fetch did not cover is cleared by hand.
	var data []byte
	if len(descs) == 1 && !descs[0].ID.IsZero() {
		if data, err = c.fetchReplica(ctx, descs[0]); err != nil {
			return nil, err
		}
		if int64(len(data)) == baseLen {
			return data, nil
		}
	}
	buf := chunk.GetBuf(int(baseLen))[:baseLen]
	clear(buf[copy(buf, data):])
	chunk.PutBuf(data)
	return buf, nil
}

// fetchReplica serves the chunk from one of its replicas: serial
// failover in placement order by default, or a concurrent
// first-success-wins race when hedged reads are on. The returned buffer
// is the caller's (Conn.Fetch's contract): readers donate it back to the
// chunk pool once consumed.
func (c *Client) fetchReplica(ctx context.Context, d chunk.Desc) ([]byte, error) {
	if c.hedged && len(d.Providers) > 1 {
		return c.fetchHedged(ctx, d)
	}
	var start time.Time
	if c.m != nil {
		start = c.now()
	}
	var lastErr error
	for _, pid := range c.orderByHealth(d.Providers) {
		if ctx.Err() != nil {
			break
		}
		conn, err := c.dir.Lookup(ctx, pid)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := conn.Fetch(ctx, c.user, d.ID)
		if err == nil {
			c.observeFetch(start, lastErr != nil)
			return data, nil
		}
		lastErr = err
	}
	if c.m != nil {
		c.m.observe(c.m.fetchErr, c.now().Sub(start))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if lastErr == nil {
		lastErr = ErrUnavailable
	}
	return nil, fmt.Errorf("%w: chunk %s: %v", ErrUnavailable, d.ID.Short(), lastErr)
}

// orderByHealth returns pids with the health-vetoed providers moved to
// the back (stable within each class), so failover tries likely-alive
// replicas before burning its deadline on suspect ones. With no health
// verdict attached — or nothing vetoed — pids is returned as-is.
func (c *Client) orderByHealth(pids []string) []string {
	if c.healthy == nil {
		return pids
	}
	allHealthy := true
	for _, pid := range pids {
		if !c.healthy(pid) {
			allHealthy = false
			break
		}
	}
	if allHealthy {
		return pids
	}
	out := make([]string, 0, len(pids))
	for _, pid := range pids {
		if c.healthy(pid) {
			out = append(out, pid)
		}
	}
	for _, pid := range pids {
		if !c.healthy(pid) {
			out = append(out, pid)
		}
	}
	return out
}

// hedgedSet returns the replicas a hedged race should fan out to: the
// healthy subset, or every replica when none is healthy (degraded data
// beats no data).
func (c *Client) hedgedSet(pids []string) []string {
	if c.healthy == nil {
		return pids
	}
	out := make([]string, 0, len(pids))
	for _, pid := range pids {
		if c.healthy(pid) {
			out = append(out, pid)
		}
	}
	if len(out) == 0 {
		return pids
	}
	return out
}

// observeFetch records one successful serial fetch, classified by
// whether an earlier replica had already failed (failover) or the first
// one answered (serial).
func (c *Client) observeFetch(start time.Time, failedOver bool) {
	if c.m == nil {
		return
	}
	h := c.m.fetchSerial
	if failedOver {
		h = c.m.fetchFailover
	}
	c.m.observe(h, c.now().Sub(start))
}

// fetchHedged races every replica and returns the first chunk served.
// Losing fetches are cancelled — not merely discarded — the moment a
// winner lands, via a per-race child context; when all replicas fail,
// the per-replica errors are aggregated. A cancelled parent ctx aborts
// the whole race promptly. A loser that completes anyway leaves its buffer
// in the result channel for the GC: nobody is left to donate it.
func (c *Client) fetchHedged(ctx context.Context, d chunk.Desc) ([]byte, error) {
	var start, firstFail time.Time
	if c.m != nil {
		start = c.now()
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	racers := c.hedgedSet(d.Providers)
	type result struct {
		data []byte
		err  error
	}
	// Buffered so cancelled losers can always deposit their result and
	// exit without a receiver.
	ch := make(chan result, len(racers))
	for _, pid := range racers {
		go func(pid string) {
			conn, err := c.dir.Lookup(hctx, pid)
			if err != nil {
				ch <- result{err: fmt.Errorf("lookup %s: %w", pid, err)}
				return
			}
			data, err := conn.Fetch(hctx, c.user, d.ID)
			if err != nil {
				ch <- result{err: fmt.Errorf("fetch %s: %w", pid, err)}
				return
			}
			ch <- result{data: data}
		}(pid)
	}
	errs := make([]error, 0, len(racers))
	for range racers {
		select {
		case <-ctx.Done():
			if c.m != nil {
				c.m.observe(c.m.fetchErr, c.now().Sub(start))
			}
			return nil, ctx.Err()
		case r := <-ch:
			if r.err == nil {
				if c.m != nil {
					now := c.now()
					c.m.observe(c.m.fetchHedged, now.Sub(start))
					// Win margin: how long after the first replica failure
					// the winner landed — the failover wait a serial read
					// would have paid on top of its failed attempt.
					if !firstFail.IsZero() {
						c.m.observe(c.m.hedgedMargin, now.Sub(firstFail))
					}
				}
				return r.data, nil
			}
			if c.m != nil && firstFail.IsZero() {
				firstFail = c.now()
			}
			errs = append(errs, r.err)
		}
	}
	if c.m != nil {
		c.m.observe(c.m.fetchErr, c.now().Sub(start))
	}
	return nil, fmt.Errorf("%w: chunk %s: %w", ErrUnavailable, d.ID.Short(), errors.Join(errs...))
}

func (c *Client) abort(tk vmanager.Ticket) {
	// Best effort: keep the publication chain moving for later writers.
	_ = c.vm.Abort(tk.Blob, tk.Version)
}

func (c *Client) event(op instrument.Op, blob, ver uint64, off, n int64, err error) {
	ev := instrument.Event{
		Time: c.now(), Actor: instrument.ActorClient, Node: c.user, User: c.user,
		Op: op, Blob: blob, Version: ver, Offset: off, Bytes: n,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	c.emit.Emit(ev)
}
