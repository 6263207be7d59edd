// Package gc implements the storage-lifecycle subsystem: the layer that
// owns chunk liveness end to end. BlobSeer's versioning model keeps every
// version of every BLOB immutable, so storage only ever grows unless the
// system reclaims it autonomously. Three cooperating pieces do that:
//
//   - Pins: reader-counted pins on (blob, version), acquired by streaming
//     readers (BlobReader, s3 gateway GETs) and released on Close. A blob
//     deletion that races a pinned reader is deferred — queued, not
//     dropped — until the last pin drains, so an in-flight stream always
//     serves its full version.
//
//   - Retention: per-BLOB version-retention policies (keep-last-N, max
//     age) evaluated against the version manager. Retired versions stop
//     being marked live, so their exclusive chunks become sweep fodder
//     instead of living forever.
//
//   - Sweep: an epoch-based mark-and-sweep pass. Mark walks the
//     metadata trees of every retained version of every live BLOB
//     (including descriptors republished by self-optimization repairs)
//     plus the snapshots of deleted-but-pinned BLOBs; sweep pages through
//     each provider's chunk inventory and purges unreferenced keys
//     wholesale. The sweep — not per-operation refcount bookkeeping — is
//     the source of truth for liveness: stale refcounts left behind by
//     healed or multi-version BLOBs are corrected here. Chunks flushed by
//     a still-unpublished writer are protected by a sweep-epoch grace
//     window: every provider's epoch is advanced before marking, and only
//     unreferenced chunks whose Put-epoch tag is at least GraceEpochs
//     windows old are reclaimed.
//
//   - Writer leases: a BlobWriter registers a lease at open
//     (OpenWriterLease) and releases it at Close/abandon. The lease holds
//     the writer's base version in the version manager (retention skips
//     it, so the nodes a partial-slot merge reads stay marked), and its
//     ID names per-provider chunk leases the writer registers as flushes
//     land — the sweep's victim classification and the provider's Purge
//     both skip leased chunks, so an unpublished writer survives any
//     number of sweep passes and a same-content re-put can never lose to
//     the purge of an already-classified victim. Leases expire after a
//     TTL without heartbeat and are reaped at the next sweep, so a
//     crashed gateway cannot pin storage forever. With leases in place,
//     the grace window above is belt-and-suspenders, not the correctness
//     mechanism.
//
// The mark phase runs at metadata speed: BLOBs fan out over a bounded
// worker pool (WithMarkWorkers), and within a BLOB the walk is node
// aware — the versioned segment trees share every untouched subtree
// across versions by reference, so the walk records visited node keys
// and prunes descent at any subtree already seen, collapsing V full
// re-walks into one walk plus each version's private path nodes. The
// same node-level mark set feeds the metadata sweep: tree nodes
// reachable only from retired or deleted versions are deleted from the
// metadata stores (closing the "node space grows per version forever"
// leak), with in-flight publications protected by a per-BLOB version
// watermark and deleted-but-pinned BLOBs' nodes held until their pins
// drain.
//
// Deletion fast path: DeleteBlob reclaims exactly (per-slot refcount
// decrements) for single-version BLOBs and conservatively (provider-set
// union per chunk) for multi-version ones; whatever the fast path cannot
// prove, the next sweep collects.
package gc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/metrics"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

// ErrPinned reports an operation refused because of outstanding pins.
var ErrPinned = errors.New("gc: version is pinned")

// VersionManager is the lifecycle manager's view of the version manager.
// *vmanager.Manager implements it; tests wrap it to inject faults (the
// mark phase must distinguish a vanished BLOB from a failing metadata
// plane and abort the sweep on the latter).
type VersionManager interface {
	Blobs() []uint64
	DeletedBlobs() []uint64
	Versions(blob uint64) ([]vmanager.VersionMeta, error)
	Version(blob, version uint64) (vmanager.VersionMeta, error)
	Tree(blob uint64) (*blobmeta.Tree, error)
	DeleteExact(blob uint64) ([]vmanager.VersionSlots, error)
	RetentionCandidates(blob uint64, now time.Time) ([]uint64, error)
	RetireVersions(blob uint64, vers []uint64) (int, error)
	// HoldVersion / ReleaseVersion pin one published version against
	// retirement on behalf of a writer lease (see OpenWriterLease).
	HoldVersion(blob, version uint64) error
	ReleaseVersion(blob, version uint64)
	MetaStore() blobmeta.Store
	Forget(blob uint64) error
}

var _ VersionManager = (*vmanager.Manager)(nil)

// blobGone reports whether a version-manager error means the BLOB
// vanished between enumeration and use (deleted or never existed) — the
// only errors the mark phase may skip. Anything else is a failing
// metadata plane: marking must abort rather than leave a live BLOB's
// chunks unmarked and purgeable.
func blobGone(err error) bool {
	return errors.Is(err, vmanager.ErrNoBlob) || errors.Is(err, vmanager.ErrDeleted)
}

// Providers is the lifecycle manager's access to the data-provider
// pool: which providers to sweep, and each one's provider.API. The
// in-process plane resolves to *provider.Provider (core.Cluster), an RPC
// plane to *rpc.Conn — the sweep cannot tell them apart.
type Providers interface {
	// IDs lists the providers to sweep.
	IDs() []string
	// Provider resolves one provider by ID.
	Provider(ctx context.Context, id string) (provider.API, error)
}

// pinKey identifies one pinned (blob, version).
type pinKey struct {
	blob, version uint64
}

// pin is one pinned version: its reader count and its tree's root, which
// the mark phase walks from and could not derive any more once retention
// has retired the version under the pin.
type pin struct {
	readers int
	root    blobmeta.Root
}

// deferredBlob is a deleted BLOB whose chunk reclaim waits for pins to
// drain. The per-slot snapshot is taken at delete time because the
// version manager forgets the BLOB's tree the moment it is deleted.
type deferredBlob struct {
	versions []vmanager.VersionSlots
}

// chunkIDs returns the distinct chunk IDs the snapshot references (these
// must stay marked while the deferral lasts).
func (d *deferredBlob) chunkIDs() []chunk.ID {
	seen := map[chunk.ID]bool{}
	var out []chunk.ID
	for _, v := range d.versions {
		for _, s := range v.Slots {
			if !seen[s.ID] {
				seen[s.ID] = true
				out = append(out, s.ID)
			}
		}
	}
	return out
}

// SweepReport summarizes one mark-and-sweep pass.
type SweepReport struct {
	Time       time.Time
	Providers  int   // providers swept
	Failed     int   // providers that could not be listed or purged
	Scanned    int   // chunks examined across all providers
	Live       int   // chunks marked live (referenced by a retained version or deferred snapshot)
	Leased     int   // unreferenced chunks protected by a live writer lease
	InGrace    int   // unreferenced chunks protected by the write-in-progress grace window
	Swept      int   // unreferenced chunks reclaimed (counted, not removed, under DryRun)
	SweptBytes int64 // payload bytes reclaimed

	// LeasesReaped counts expired lease records dropped this pass —
	// gateway-side base holds and provider-side chunk leases combined.
	LeasesReaped int

	// Metadata-node sweep.
	NodesScanned int // tree nodes examined in the metadata store
	NodesLive    int // nodes reachable from a retained or pinned version
	NodesKept    int // protected: deferred BLOBs' nodes, in-flight publications, post-snapshot BLOBs
	NodesSwept   int // nodes reclaimed (counted, not removed, under DryRun)

	// The incremental mark's hit rate: live BLOBs whose trees the pass
	// walked (and whose nodes it scanned) against those marked from the
	// cache because nothing about them changed.
	BlobsWalked int
	BlobsReused int

	DryRun bool

	// Err is the first error the pass hit ("" = clean), recorded by the
	// background runner so a degraded provider or metadata plane is
	// visible in LastReports instead of silently dropped.
	Err string
}

// MarkReport summarizes one standalone mark pass (see Manager.Mark).
type MarkReport struct {
	Blobs    int // live BLOBs marked (walked or reused from the cache)
	Versions int // version walks performed (shared-subtree-pruned walks included)
	Chunks   int // distinct chunk IDs marked live
	Nodes    int // distinct metadata-tree nodes read
}

// RetentionReport summarizes one retention-enforcement pass.
type RetentionReport struct {
	Time          time.Time
	BlobsScanned  int
	Retired       int // versions retired
	PinnedSkipped int // candidate versions skipped because a reader pins them
	LeasedSkipped int // candidate versions skipped because a writer lease holds them as base

	// Err is the first error the pass hit ("" = clean), recorded by the
	// background runner so a degraded metadata plane is visible in
	// LastReports instead of silently dropped.
	Err string
}

// Stats is a snapshot of the lifecycle manager's gauges and counters.
type Stats struct {
	Pins          int   // outstanding reader pins
	PinnedEntries int   // distinct pinned (blob, version) pairs
	DeferredBlobs int   // deleted BLOBs queued behind pins
	SweptChunks   int64 // chunks reclaimed by sweeps so far
	SweptBytes    int64 // bytes reclaimed by sweeps so far
	SweptNodes    int64 // metadata-tree nodes reclaimed by sweeps so far
	ReclaimedRefs int64 // refcount decrements issued by the deletion fast path
	RetiredVers   int64 // versions retired by retention so far
	ActiveLeases  int   // writer leases currently registered with this manager
	ReapedLeases  int64 // expired lease records reaped by sweeps so far
}

// Manager is the storage-lifecycle actor.
type Manager struct {
	vm   VersionManager
	prov Providers
	emit instrument.Emitter
	now  func() time.Time

	grace       uint64 // epochs of write-in-progress protection
	batch       int    // Purge batch size
	markWorkers int    // BLOBs marked concurrently per pass

	mu         sync.Mutex
	pins       map[pinKey]pin
	pinsByBlob map[uint64]int
	deferred   map[uint64]*deferredBlob

	// Writer leases (see lease.go). leaseMu is independent of m.mu: the
	// lease table is touched by writer open/renew/close and by the
	// sweep's reap, never under the pin lock.
	leaseMu    sync.Mutex
	leases     map[string]*writerLeaseState
	leaseNonce string // per-manager lease-ID prefix (cross-process unique)
	leaseSeq   uint64
	leaseTTL   time.Duration

	sweepMu sync.Mutex // serializes sweeps against each other only

	// marks is the incremental mark's per-BLOB cache (see mark.go): a mark
	// phase replaces the map when all its walks have completed, the node
	// sweep replaces single entries to settle them.
	markMu sync.Mutex
	marks  map[uint64]*blobMark

	// fence orders the foreground refcount-decrement paths (DeleteBlob
	// fast path, pin-drain, ReclaimDescs) against a concurrent sweep
	// without putting them behind the sweep's List/Purge I/O. Decrements
	// hold the read side while they filter against the purged set and
	// issue their removes; the sweep takes the write side only for
	// moments — a barrier between mark's version walks and its
	// deferred-snapshot read, and the recording of each purge batch —
	// so a foreground delete waits at worst for one such blip (or for
	// another in-flight decrement), never for a pass over millions of
	// chunks.
	fence sync.RWMutex
	// purged is the active (non-dry-run) pass's wholesale-purged IDs;
	// nil outside passes. A decrement whose ID is in the set is dropped:
	// the purge already freed the chunk, and a remove chasing it could
	// debit a fresh same-content Put. Written under fence's write lock,
	// read under its read side.
	purged map[chunk.ID]struct{}

	// Metric handles. New allocates standalone instances so every
	// observation site stays nil-check free; WithMetrics swaps them for
	// registry-owned children so they appear on /metrics.
	pinned        *metrics.Gauge // outstanding pins
	deferredBlobs *metrics.Gauge // queued deletions
	sweptChunks   *metrics.Counter
	sweptBytes    *metrics.Counter
	sweptNodes    *metrics.Counter
	reclaimedRefs *metrics.Counter
	retiredVers   *metrics.Counter
	leasesActive  *metrics.Gauge // registered writer leases
	leasesReaped  *metrics.Counter
	markWalked    *metrics.Counter // BLOBs walked by mark phases
	markReused    *metrics.Counter // BLOBs marked from the cache
	markNodeReads *metrics.Counter // tree nodes read by mark walks

	phaseMark      *metrics.Histogram // mark walk duration per pass
	phaseSweep     *metrics.Histogram // provider inventory sweep duration per pass
	phaseNodeSweep *metrics.Histogram // metadata-node sweep duration per pass
	phaseRetention *metrics.Histogram // retention enforcement duration per pass
	pinDrain       *metrics.Histogram // deferred-reclaim latency when the last pin drains
}

// Option configures a Manager.
type Option func(*Manager)

// WithEmitter attaches instrumentation.
func WithEmitter(e instrument.Emitter) Option {
	return func(m *Manager) {
		if e != nil {
			m.emit = e
		}
	}
}

// WithClock overrides the time source.
func WithClock(now func() time.Time) Option {
	return func(m *Manager) {
		if now != nil {
			m.now = now
		}
	}
}

// WithGraceEpochs sets how many whole sweep epochs an unreferenced chunk
// is protected after its last Put (default 1). Grace 0 protects only
// chunks stored after the pass advanced the epoch (which happens once
// mark has succeeded); an unpublished writer that flushed before or
// during the mark loses its chunks — use 0 only when no writers can be
// in flight.
func WithGraceEpochs(n int) Option {
	return func(m *Manager) {
		if n >= 0 {
			m.grace = uint64(n)
		}
	}
}

const (
	// pageSize is the inventory page size used when listing provider
	// chunks and metadata nodes.
	pageSize = 1024
	// sweepWorkers bounds how many providers one sweep pages and purges
	// concurrently: wall-clock sweep time scales with the slowest
	// provider, not the sum of all of them.
	sweepWorkers = 8
)

// WithMarkWorkers bounds how many BLOBs one mark phase walks
// concurrently (default 8, like sweepWorkers). All versions of
// one BLOB stay on one worker so the shared-subtree prune set needs no
// cross-worker coordination.
func WithMarkWorkers(n int) Option {
	return func(m *Manager) {
		if n > 0 {
			m.markWorkers = n
		}
	}
}

// New returns a lifecycle manager over the version manager and provider
// pool.
func New(vm VersionManager, prov Providers, opts ...Option) *Manager {
	m := &Manager{
		vm: vm, prov: prov,
		emit:        instrument.Nop{},
		now:         time.Now,
		grace:       1,
		batch:       256,
		markWorkers: 8,
		pins:        make(map[pinKey]pin),
		pinsByBlob:  make(map[uint64]int),
		deferred:    make(map[uint64]*deferredBlob),
		leases:      make(map[string]*writerLeaseState),
		leaseNonce:  newLeaseNonce(),
		leaseTTL:    provider.DefaultLeaseTTL,

		pinned:         &metrics.Gauge{},
		deferredBlobs:  &metrics.Gauge{},
		sweptChunks:    &metrics.Counter{},
		sweptBytes:     &metrics.Counter{},
		sweptNodes:     &metrics.Counter{},
		reclaimedRefs:  &metrics.Counter{},
		retiredVers:    &metrics.Counter{},
		leasesActive:   &metrics.Gauge{},
		leasesReaped:   &metrics.Counter{},
		markWalked:     &metrics.Counter{},
		markReused:     &metrics.Counter{},
		markNodeReads:  &metrics.Counter{},
		phaseMark:      metrics.NewHistogram(metrics.DurationBuckets),
		phaseSweep:     metrics.NewHistogram(metrics.DurationBuckets),
		phaseNodeSweep: metrics.NewHistogram(metrics.DurationBuckets),
		phaseRetention: metrics.NewHistogram(metrics.DurationBuckets),
		pinDrain:       metrics.NewHistogram(metrics.DurationBuckets),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Pin registers a reader on the version root addresses: chunk reclaim of
// the version is deferred until every pin is released. Pinning a deleted
// BLOB fails with vmanager.ErrDeleted — the reader lost the race and
// must not start a stream whose chunks are already being reclaimed.
// Pin implements client.Pinner.
func (m *Manager) Pin(blob uint64, root blobmeta.Root) error {
	// Register first, verify liveness second: a concurrent DeleteBlob
	// either sees this pin when it snapshots (and defers), or marked the
	// BLOB deleted before our check (and we fail cleanly). Either way no
	// window exists where the reader runs unprotected.
	k := pinKey{blob, root.Version}
	m.mu.Lock()
	m.pins[k] = pin{readers: m.pins[k].readers + 1, root: root}
	m.pinsByBlob[blob]++
	m.mu.Unlock()
	// Verify the exact version, not just the BLOB: a version retired by
	// retention between the reader's resolve and this pin must fail the
	// open — its chunks are already sweep fodder.
	if _, err := m.vm.Version(blob, root.Version); err != nil {
		m.unpin(k)
		return err
	}
	m.pinned.Inc()
	return nil
}

// Unpin releases one pin. When the last pin of a deleted BLOB drains,
// the queued reclaim runs synchronously — by the time Unpin returns the
// fast-path refcount decrements have been issued.
// Unpin implements client.Pinner.
func (m *Manager) Unpin(blob, version uint64) {
	if m.unpin(pinKey{blob, version}) {
		m.pinned.Dec()
	}
}

// unpin decrements a pin entry, firing the deferred reclaim on drain.
// It reports whether a pin was actually released.
func (m *Manager) unpin(k pinKey) bool {
	// The fence must be held from before the deferred entry leaves the
	// map until the drain's decrements are issued: with a gap between
	// the two, a whole sweep pass could run inside it — mark seeing
	// neither the blob (deleted) nor the snapshot (just removed), its
	// purged set already reset — and the late decrements would debit a
	// fresh same-content re-store unfiltered. Holding the read side
	// across the handoff forces mark's barrier to wait for us instead.
	m.fence.RLock()
	defer m.fence.RUnlock()
	m.mu.Lock()
	p := m.pins[k]
	if p.readers == 0 {
		m.mu.Unlock()
		return false
	}
	if p.readers--; p.readers == 0 {
		delete(m.pins, k)
	} else {
		m.pins[k] = p
	}
	m.pinsByBlob[k.blob]--
	drained := m.pinsByBlob[k.blob] == 0
	if drained {
		delete(m.pinsByBlob, k.blob)
	}
	var def *deferredBlob
	if drained {
		if d, ok := m.deferred[k.blob]; ok {
			def = d
			delete(m.deferred, k.blob)
		}
	}
	m.mu.Unlock()
	if def != nil {
		m.deferredBlobs.Dec()
		drainStart := m.now()
		// Still under the fence's read side (taken at the top): the
		// decrements filter against a concurrent pass's purged set
		// without the reader's Close ever waiting on List/Purge I/O.
		//lockio:allow decrements must stay under the fence read side so a concurrent pass's purged set filters them (see comment above)
		m.reclaimVersions(context.Background(), def.versions) //ctxfirst:allow pin drain runs on the reader's Close path, which has no ctx; reclaim must not be abortable
		m.pinDrain.Observe(m.now().Sub(drainStart).Seconds())
		m.emit.Emit(instrument.Event{
			Time: m.now(), Actor: instrument.ActorGC, Op: instrument.OpEvict, Blob: k.blob,
		})
	}
	return true
}

// Pinned reports the number of outstanding pins on (blob, version).
func (m *Manager) Pinned(blob, version uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pins[pinKey{blob, version}].readers
}

// DeferredBlobs lists deleted BLOBs whose reclaim is queued behind pins.
func (m *Manager) DeferredBlobs() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.deferred))
	for b := range m.deferred {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeleteBlob deletes a BLOB through the lifecycle layer: the BLOB is
// marked deleted immediately (new opens fail), and its chunks are either
// reclaimed now or — when a reader pins any of its versions — queued
// until the last pin drains. Every layer (gateway, removal strategies,
// admin tools) must route deletions here so liveness stays consistent.
func (m *Manager) DeleteBlob(ctx context.Context, blob uint64) error {
	// The delete→snapshot handoff must be atomic with respect to the
	// sweep's mark phase: between DeleteExact (the BLOB leaves the
	// version manager) and the deferred-snapshot insert, a concurrent
	// mark would see neither the live versions nor the snapshot and
	// could purge a pinned reader's chunks. Holding the fence's read
	// side across the handoff gives exactly that — mark's barrier waits
	// out in-flight handoffs before it reads the deferred set — while
	// concurrent deletes still run in parallel with each other and with
	// the sweep's List/Purge I/O. The non-deferred reclaim stays under
	// the fence too: its decrements are filtered against (and ordered
	// before) the pass's wholesale purges, so they can never chase a
	// purge into debiting a fresh same-content Put of a still-
	// unpublished writer.
	m.fence.RLock()
	vs, err := m.vm.DeleteExact(blob)
	if err != nil {
		m.fence.RUnlock()
		return err
	}
	m.mu.Lock()
	pinned := m.pinsByBlob[blob] > 0
	if pinned {
		m.deferred[blob] = &deferredBlob{versions: vs}
	}
	m.mu.Unlock()
	if pinned {
		m.fence.RUnlock()
		m.deferredBlobs.Inc()
		m.emit.Emit(instrument.Event{
			Time: m.now(), Actor: instrument.ActorGC, Op: instrument.OpDelete, Blob: blob,
			Err: ErrPinned.Error(),
		})
		return nil
	}
	m.reclaimVersions(ctx, vs) //lockio:allow the fence read side must cover the decrements; mark's barrier waits for handoffs, not vice versa (see comment above)
	m.fence.RUnlock()
	m.emit.Emit(instrument.Event{
		Time: m.now(), Actor: instrument.ActorGC, Op: instrument.OpDelete, Blob: blob,
	})
	return nil
}

// reclaimVersions issues the deletion fast path's refcount decrements.
// A single-version BLOB reclaims exactly: one decrement per slot
// occurrence per provider, so repeated-content slots balance the Puts
// that stored them. A multi-version BLOB shares unchanged slots across
// versions with no per-version Puts behind them, so exact accounting is
// impossible from metadata alone; it reclaims conservatively — one
// decrement per (chunk, provider) over the union of all versions'
// descriptors, which also covers replicas added by self-optimization
// repairs — and the next sweep collects whatever refcounts remain.
func (m *Manager) reclaimVersions(ctx context.Context, vs []vmanager.VersionSlots) {
	refs := map[chunk.ID]map[string]int{}
	bump := func(id chunk.ID, prov string, exact bool) {
		per := refs[id]
		if per == nil {
			per = map[string]int{}
			refs[id] = per
		}
		if exact {
			per[prov]++
		} else if per[prov] == 0 {
			per[prov] = 1
		}
	}
	exact := len(vs) == 1
	for _, v := range vs {
		for _, d := range v.Slots {
			for _, p := range d.Providers {
				bump(d.ID, p, exact)
			}
		}
	}
	perProv := map[string][]chunk.ID{}
	for id, per := range refs {
		for p, count := range per {
			for i := 0; i < count; i++ {
				perProv[p] = append(perProv[p], id)
			}
		}
	}
	m.reclaimedRefs.Add(m.removeFanout(ctx, perProv))
}

// removeFanout issues refcount decrements provider-parallel: each
// provider's removes run sequentially on one goroutine, so a large
// reclaim is bounded by the slowest provider, not the sum (the drain
// path runs inside a reader's Close). Failures are best effort — dead
// providers keep stale chunks for the sweep. It returns how many
// decrements were issued.
//
// Callers hold the fence's read side, which makes the purged set stable
// for the duration: IDs the active sweep pass already wholesale-purged
// are dropped here — the purge freed them, and a remove landing after
// it would debit a fresh same-content Put. Dropping errs toward leaking
// a refcount (a reference of a re-stored chunk going unaccounted),
// which the next sweep corrects; the sweep, not the refcounts, is the
// source of truth for liveness.
func (m *Manager) removeFanout(ctx context.Context, perProv map[string][]chunk.ID) int64 {
	var issued int64
	var wg sync.WaitGroup
	for p, ids := range perProv {
		if m.purged != nil {
			live := ids[:0]
			for _, id := range ids {
				if _, hit := m.purged[id]; !hit {
					live = append(live, id)
				}
			}
			ids = live
		}
		if len(ids) == 0 {
			continue
		}
		issued += int64(len(ids))
		wg.Add(1)
		go func(p string, ids []chunk.ID) {
			defer wg.Done()
			// Decrements are best-effort by design: a missed one leaves
			// a refcount high (safe), and the next sweep collects it.
			api, err := m.prov.Provider(ctx, p)
			if err != nil {
				return
			}
			for _, id := range ids {
				_ = api.Remove(ctx, id) //gcfailsafe:allow failure leaves the refcount high, which is the safe direction; the sweep collects it
			}
		}(p, ids)
	}
	wg.Wait()
	return issued
}

// ReclaimDescs drops one reference per descriptor per provider — the
// path for chunks flushed by a writer that never published (the version
// manager cannot enumerate them). Descriptors are processed as given:
// callers pass per-slot lists, so repeated content reclaims per slot.
func (m *Manager) ReclaimDescs(ctx context.Context, descs []chunk.Desc) {
	perProv := map[string][]chunk.ID{}
	for _, d := range descs {
		for _, p := range d.Providers {
			perProv[p] = append(perProv[p], d.ID)
		}
	}
	// Under the fence like every other decrement path: a sweep that just
	// purged these IDs wholesale must not be chased by decrements that
	// would debit a fresh same-content Put. The read side keeps this off
	// the sweep's critical path entirely.
	m.fence.RLock()
	n := m.removeFanout(ctx, perProv) //lockio:allow fence read side over the fan-out is the ordering rule against wholesale purges (see comment above)
	m.fence.RUnlock()
	m.reclaimedRefs.Add(n)
}

// EnforceRetention evaluates every live BLOB's retention policy at
// instant now and retires the nominated versions, skipping any version a
// reader currently pins or a writer lease holds as its base (the next
// pass retries both). The lease skip here is for report visibility; the
// version manager's own hold makes the skip authoritative even for
// direct RetireVersions callers.
func (m *Manager) EnforceRetention(ctx context.Context, now time.Time) (RetentionReport, error) {
	start := m.now()
	rep := RetentionReport{Time: now}
	leased := m.leasedBases()
	var firstErr error
	for _, blob := range m.vm.Blobs() {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		rep.BlobsScanned++
		cands, err := m.vm.RetentionCandidates(blob, now)
		if err != nil {
			// Fail-safe rule: a blob whose policy cannot be read is
			// skipped, but the failure surfaces in the pass result —
			// except deletion racing the scan, which the next pass
			// resolves on its own.
			if firstErr == nil && !errors.Is(err, vmanager.ErrDeleted) {
				firstErr = err
			}
			continue
		}
		if len(cands) == 0 {
			continue
		}
		m.mu.Lock()
		keep := cands[:0]
		for _, v := range cands {
			if m.pins[pinKey{blob, v}].readers > 0 {
				rep.PinnedSkipped++
				continue
			}
			if leased[pinKey{blob, v}] {
				rep.LeasedSkipped++
				continue
			}
			keep = append(keep, v)
		}
		m.mu.Unlock()
		if len(keep) == 0 {
			continue
		}
		n, err := m.vm.RetireVersions(blob, keep)
		if err != nil {
			// The blob may have been deleted or published to between the
			// candidate read and the retire; retry next pass.
			if firstErr == nil && !errors.Is(err, vmanager.ErrDeleted) {
				firstErr = err
			}
			continue
		}
		rep.Retired += n
	}
	m.retiredVers.Add(int64(rep.Retired))
	m.phaseRetention.Observe(m.now().Sub(start).Seconds())
	return rep, firstErr
}

// Sweep runs one mark-and-sweep pass. Mark enumerates the descriptors of
// every retained version of every live BLOB plus the snapshots of
// deleted-but-pinned BLOBs; sweep advances every provider's epoch, pages
// through its chunk inventory and purges unreferenced chunks old enough
// to clear the grace window. Providers are paged and purged concurrently
// (at most sweepWorkers at a time), so wall-clock sweep time tracks the
// slowest provider, not the sum. Under dryRun chunks are classified and
// counted but nothing is removed.
//
// The sweep never excludes the foreground: deletes, pin-drain reclaims
// and orphan reclaims proceed while it runs, ordered against its purges
// by the per-pass purged-ID set behind the fence (see Manager.fence).
func (m *Manager) Sweep(ctx context.Context, dryRun bool) (SweepReport, error) {
	m.sweepMu.Lock()
	defer m.sweepMu.Unlock()

	rep := SweepReport{Time: m.now(), DryRun: dryRun}
	if !dryRun {
		// A writer that stopped heartbeating is dead; drop its base hold
		// before retention and mark run so the expiry actually frees
		// anything this pass. Dry-runs classify but never reap.
		rep.LeasesReaped += m.reapWriterLeases()
	}
	var mu sync.Mutex // guards rep and firstErr during the fan-outs
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	ids := m.prov.IDs()
	sem := make(chan struct{}, sweepWorkers)
	var wg sync.WaitGroup

	markStart := m.now()
	ms, err := m.mark(ctx) //lockio:allow sweepMu exists to serialize whole passes, I/O included; foreground work never takes it
	if err != nil {
		return rep, err
	}
	m.phaseMark.Observe(m.now().Sub(markStart).Seconds())
	rep.BlobsWalked, rep.BlobsReused = len(ms.walked), ms.reused

	// Epochs advance only after mark succeeds: an aborted pass (flaky
	// metadata plane, cancellation) must not age unpublished writers out
	// of their grace protection — the same erosion rule dry-runs follow
	// (they never advance, classifying against the epoch a real sweep
	// would see). Advancing after mark keeps every racing writer safe at
	// the default grace: a chunk flushed during the mark walks carries
	// the pre-advance epoch E and classifies E+grace >= E+1 for any
	// grace >= 1; a chunk flushed after the advance carries E+1 and is
	// inside the window at any grace. Only grace 0 narrows: it protects
	// just the stores that land after this advance (see WithGraceEpochs).
	epochs := make(map[string]uint64, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var e uint64
			p, err := m.prov.Provider(ctx, id)
			switch {
			case err != nil: // unresolvable: counted as failed below
			case dryRun:
				e, err = p.Epoch(ctx)
				e++
			default:
				e, err = p.AdvanceEpoch(ctx)
			}
			mu.Lock()
			if err != nil {
				rep.Failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("gc: advance epoch %s: %w", id, err)
				}
			} else {
				epochs[id] = e
			}
			mu.Unlock()
		}(id)
	}
	wg.Wait() //lockio:allow sweepMu serializes whole passes, fan-out waits included; foreground work never takes it

	if !dryRun {
		// Open the pass's purged-ID set: from here until the deferred
		// reset, foreground decrements filter against it instead of
		// waiting for the pass to finish. The set must exist before the
		// first Purge — recordPurged populates it batch by batch.
		m.fence.Lock()
		m.purged = make(map[chunk.ID]struct{})
		m.fence.Unlock()
		defer func() {
			m.fence.Lock()
			m.purged = nil
			m.fence.Unlock()
		}()
	}

	// The metadata-node sweep runs alongside the provider fan-out: it
	// touches only the metadata stores, needs no epoch and no purge
	// fence, and is one in-memory scan against the mark set.
	sweepStart := m.now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		nodeStart := m.now()
		res := m.sweepNodes(ctx, ms, dryRun)
		m.phaseNodeSweep.Observe(m.now().Sub(nodeStart).Seconds())
		mu.Lock()
		rep.NodesScanned += res.scanned
		rep.NodesLive += res.live
		rep.NodesKept += res.kept
		rep.NodesSwept += res.swept
		mu.Unlock()
		if res.err != nil {
			fail(res.err)
		}
	}()

	for _, id := range ids {
		epoch, ok := epochs[id]
		if !ok {
			continue
		}
		wg.Add(1)
		go func(id string, epoch uint64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := m.sweepProvider(ctx, id, epoch, ms.chunks, dryRun)
			mu.Lock()
			if res.counted {
				rep.Providers++
			}
			if res.failed {
				rep.Failed++
			}
			rep.Scanned += res.scanned
			rep.Live += res.live
			rep.Leased += res.leased
			rep.InGrace += res.inGrace
			rep.Swept += res.swept
			rep.SweptBytes += res.sweptBytes
			rep.LeasesReaped += res.leasesReaped
			mu.Unlock()
			m.leasesReaped.Add(int64(res.leasesReaped))
			if res.err != nil {
				fail(res.err)
			}
		}(id, epoch)
	}
	wg.Wait() //lockio:allow sweepMu serializes whole passes, fan-out waits included; foreground work never takes it
	// The sweep phase covers the provider-inventory fan-out (the node
	// sweep runs alongside it and is also timed on its own above).
	m.phaseSweep.Observe(m.now().Sub(sweepStart).Seconds())

	if !dryRun {
		m.sweptChunks.Add(int64(rep.Swept))
		m.sweptBytes.Add(rep.SweptBytes)
		m.sweptNodes.Add(int64(rep.NodesSwept))
	}
	m.emit.Emit(instrument.Event{
		Time: rep.Time, Actor: instrument.ActorGC, Op: instrument.OpSweep,
		Bytes: rep.SweptBytes, Value: float64(rep.Swept),
	})
	return rep, firstErr
}

// provSweep is one provider's share of a sweep pass.
type provSweep struct {
	counted                               bool // provider completed its listing (counts in Providers)
	failed                                bool
	scanned, live, leased, inGrace, swept int
	leasesReaped                          int
	sweptBytes                            int64
	err                                   error
}

// sweepProvider pages one provider's inventory, classifies every chunk
// against the mark set, the provider's writer leases and the grace
// window, and purges victims in batches as the scan goes — victims
// never accumulate past one batch beyond the page in flight. Reclaimed
// space is counted from what Purge actually freed, not from the
// classification: a failed provider must not report its victims as
// swept.
//
// Lease handling is fail-safe at both steps: if the leases cannot be
// enumerated at all, the provider's whole share aborts (a lease we
// never saw might be protecting anything); if an expired lease cannot
// be confirmed released, its chunks stay protected this pass and the
// failure surfaces in the report.
func (m *Manager) sweepProvider(ctx context.Context, id string, epoch uint64, marked map[chunk.ID]bool, dryRun bool) provSweep {
	var res provSweep
	p, err := m.prov.Provider(ctx, id)
	if err != nil {
		res.failed = true
		res.err = fmt.Errorf("gc: resolve %s: %w", id, err)
		return res
	}
	leaseList, err := p.Leases(ctx)
	if err != nil {
		res.failed = true
		res.err = fmt.Errorf("gc: list leases %s: %w", id, err)
		return res
	}
	now := m.now()
	leased := make(map[chunk.ID]struct{})
	for _, li := range leaseList {
		if now.After(li.Expires) {
			if dryRun {
				// Expired: classified as unprotected (what a real sweep
				// would see), but dry-runs never mutate lease state.
				continue
			}
			if rerr := p.ReleaseLease(ctx, li.ID); rerr != nil {
				// Could not confirm the lease dead — keep protecting its
				// chunks and surface the failure.
				for _, c := range li.Chunks {
					leased[c] = struct{}{}
				}
				if res.err == nil {
					res.err = fmt.Errorf("gc: reap lease %s at %s: %w", li.ID, id, rerr)
				}
				continue
			}
			res.leasesReaped++
			continue
		}
		for _, c := range li.Chunks {
			leased[c] = struct{}{}
		}
	}
	var victims []chunk.ID
	flush := func() error {
		for len(victims) > 0 {
			n := min(m.batch, len(victims))
			batch := victims[:n]
			victims = victims[n:]
			m.recordPurged(batch)
			purged, freed, err := p.PurgeChunks(ctx, batch)
			res.swept += purged
			res.sweptBytes += freed
			if err != nil {
				return fmt.Errorf("gc: purge %s: %w", id, err)
			}
		}
		return nil
	}
	var after chunk.ID
	for {
		if err := ctx.Err(); err != nil {
			res.err = err
			return res
		}
		page, more, err := p.ListChunks(ctx, after, pageSize)
		if err != nil {
			res.failed = true
			res.err = fmt.Errorf("gc: list %s: %w", id, err)
			return res
		}
		for _, info := range page {
			res.scanned++
			_, isLeased := leased[info.ID]
			switch {
			case marked[info.ID]:
				res.live++
			case isLeased:
				// A live writer lease names this chunk: an unpublished
				// writer flushed it (or re-put identical content), and no
				// number of elapsed grace epochs makes it a victim.
				res.leased++
			case info.Epoch+m.grace >= epoch:
				// Possibly an unpublished writer's flush: protected
				// until it has sat unreferenced through the grace
				// window.
				res.inGrace++
			case dryRun:
				// Dry-run reports the classification: what a real
				// sweep would reclaim.
				res.swept++
				res.sweptBytes += info.Size
			default:
				victims = append(victims, info.ID)
			}
		}
		if len(page) > 0 {
			after = page[len(page)-1].ID
		}
		if len(victims) >= m.batch {
			if err := flush(); err != nil {
				res.counted, res.failed = true, true
				res.err = err
				return res
			}
		}
		if !more {
			break
		}
	}
	res.counted = true
	if err := flush(); err != nil {
		res.failed = true
		res.err = err
	}
	return res
}

// recordPurged publishes a purge batch to the active pass's purged-ID
// set. Taking the fence's write side does double duty: it makes the IDs
// visible to later decrements, and it waits out every decrement already
// past its filter check — so a foreground Remove always lands before
// the wholesale purge it could otherwise chase. The lock is held only
// for the map inserts, never across the Purge I/O itself.
func (m *Manager) recordPurged(ids []chunk.ID) {
	m.fence.Lock()
	for _, id := range ids {
		m.purged[id] = struct{}{}
	}
	m.fence.Unlock()
}

// Stats returns a snapshot of the lifecycle gauges and counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	entries := len(m.pins)
	deferred := len(m.deferred)
	m.mu.Unlock()
	m.leaseMu.Lock()
	activeLeases := len(m.leases)
	m.leaseMu.Unlock()
	return Stats{
		ActiveLeases:  activeLeases,
		ReapedLeases:  m.leasesReaped.Value(),
		Pins:          int(m.pinned.Value()),
		PinnedEntries: entries,
		DeferredBlobs: deferred,
		SweptChunks:   m.sweptChunks.Value(),
		SweptBytes:    m.sweptBytes.Value(),
		SweptNodes:    m.sweptNodes.Value(),
		ReclaimedRefs: m.reclaimedRefs.Value(),
		RetiredVers:   m.retiredVers.Value(),
	}
}
