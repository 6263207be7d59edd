// Package gc implements the storage-lifecycle subsystem: the layer that
// owns chunk liveness end to end. BlobSeer's versioning model keeps every
// version of every BLOB immutable, so storage only ever grows unless the
// system reclaims it autonomously. Three cooperating pieces do that:
//
//   - Pins: reader-counted pins on (blob, version), acquired by streaming
//     readers (BlobReader, s3 gateway GETs) and released on Close. A pin
//     is a version-manager hold: retention skips it, and a deleted BLOB's
//     held versions stay marked until the last pin drains, so an
//     in-flight stream always serves its full version.
//
//   - Retention: per-BLOB version-retention policies (keep-last-N, max
//     age) evaluated against the version manager. Retired versions stop
//     being marked live, so their exclusive chunks become sweep fodder
//     instead of living forever.
//
//   - Sweep: a mark-and-sweep pass, the only thing that frees a chunk.
//     Mark walks the metadata trees of every retained version of every
//     live BLOB (including descriptors republished by self-optimization
//     repairs) plus the held versions of deleted BLOBs; then every
//     provider's epoch is advanced, and sweep pages through each
//     provider's chunk inventory and purges unmarked chunks wholesale.
//     Deleting a BLOB only marks it deleted; its unheld chunks go at the
//     next pass.
//
//   - Writer protections: a BlobWriter holds its base version in the
//     version manager (retention skips it, so the nodes a partial-slot
//     merge reads stay marked) and files each flushed chunk under a
//     per-provider chunk lease, the one write-in-progress protection.
//     The lifecycle manager keeps no record of either; the writer
//     releases both once it can no longer publish (at Close, or when its
//     context ends first). The sweep does not read the chunk leases: the
//     provider's PurgeChunks skips a leased chunk at the moment of the
//     purge, so an unpublished writer survives any number of sweep passes
//     and a same-content re-put can never lose to the purge of an
//     already-classified victim. A released lease keeps protecting until
//     its provider's epoch has advanced twice past the release. A pass
//     marks, then advances, so a release at epoch r is seen by the mark
//     of every pass that purges at epoch r+2 or later: a writer that
//     publishes and releases between a pass's mark and its purge keeps
//     its chunks until a mark has seen its version. This holds while one
//     manager sweeps a provider. A chunk lease whose release never reached
//     its provider expires by that provider's clock (AdvanceEpoch drops
//     it), so a partitioned or crashed writer cannot pin storage forever.
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
package gc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/metrics"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

// VersionManager is the lifecycle manager's view of the version manager.
// *vmanager.Manager implements it; tests wrap it to inject faults (the
// mark phase must distinguish a vanished BLOB from a failing metadata
// plane and abort the sweep on the latter).
type VersionManager interface {
	Blobs() []uint64
	DeletedBlobs() []uint64
	Versions(blob uint64) ([]vmanager.VersionMeta, error)
	QueuedChunks() []chunk.ID
	Tree(blob uint64) (*blobmeta.Tree, error)
	HeldVersions(blob uint64) (*blobmeta.Tree, []vmanager.VersionMeta, error)
	Delete(blob uint64) error
	RetentionCandidates(blob uint64, now time.Time) ([]uint64, error)
	RetireVersions(blob uint64, vers []uint64) (int, error)
	// HoldVersion / ReleaseVersion protect one published version against
	// retirement for a reader pin (Pin); a BlobWriter takes one on its base.
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

// SweepReport summarizes one mark-and-sweep pass.
type SweepReport struct {
	Time       time.Time
	Providers  int   // providers swept
	Failed     int   // providers that could not be listed or purged
	Scanned    int   // chunks examined across all providers
	Live       int   // chunks marked live (referenced by a retained or held version)
	Swept      int   // unreferenced chunks reclaimed (counted, not removed, under DryRun)
	SweptBytes int64 // payload bytes reclaimed

	// Metadata-node sweep.
	NodesScanned int // tree nodes examined in the metadata store
	NodesLive    int // nodes reachable from a retained version
	NodesKept    int // protected: held deleted BLOBs' nodes, in-flight publications
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

// RetentionReport summarizes one retention-enforcement pass.
type RetentionReport struct {
	Time         time.Time
	BlobsScanned int
	Retired      int // versions retired
	Held         int // candidate versions skipped because a reader pin or a writer lease holds them

	// Err is the first error the pass hit ("" = clean), recorded by the
	// background runner so a degraded metadata plane is visible in
	// LastReports instead of silently dropped.
	Err string
}

// Stats is a snapshot of the lifecycle manager's gauges and counters.
type Stats struct {
	Pins          int   // outstanding reader pins
	PinnedEntries int   // distinct pinned (blob, version) pairs
	SweptChunks   int64 // chunks reclaimed by sweeps so far
	SweptBytes    int64 // bytes reclaimed by sweeps so far
	SweptNodes    int64 // metadata-tree nodes reclaimed by sweeps so far
	// ReclaimedRefs is always 0: only the sweep frees chunks. It stays
	// for readers that still add it to SweptChunks.
	ReclaimedRefs int64
	RetiredVers   int64 // versions retired by retention so far
}

// Manager is the storage-lifecycle actor.
type Manager struct {
	vm   VersionManager
	prov Providers
	emit instrument.Emitter
	now  func() time.Time

	batch       int // Purge batch size
	markWorkers int // BLOBs marked concurrently per pass

	mu   sync.Mutex
	pins map[pinKey]int

	sweepMu sync.Mutex // serializes sweeps against each other only

	// marks is the incremental mark's per-BLOB cache (see mark.go): a mark
	// phase replaces the map when all its walks have completed, the node
	// sweep replaces single entries to settle them.
	markMu sync.Mutex
	marks  map[uint64]*blobMark

	// Metric handles. New allocates standalone instances so every
	// observation site stays nil-check free; WithMetrics swaps them for
	// registry-owned children so they appear on /metrics.
	pinned        *metrics.Gauge // outstanding pins
	sweptChunks   *metrics.Counter
	sweptBytes    *metrics.Counter
	sweptNodes    *metrics.Counter
	retiredVers   *metrics.Counter
	markWalked    *metrics.Counter // BLOBs walked by mark phases
	markReused    *metrics.Counter // BLOBs marked from the cache
	markNodeReads *metrics.Counter // tree nodes read by mark walks

	phaseMark      *metrics.Histogram // mark walk duration per pass
	phaseSweep     *metrics.Histogram // provider inventory sweep duration per pass
	phaseNodeSweep *metrics.Histogram // metadata-node sweep duration per pass
	phaseRetention *metrics.Histogram // retention enforcement duration per pass
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
		batch:       256,
		markWorkers: 8,
		pins:        make(map[pinKey]int),

		pinned:         &metrics.Gauge{},
		sweptChunks:    &metrics.Counter{},
		sweptBytes:     &metrics.Counter{},
		sweptNodes:     &metrics.Counter{},
		retiredVers:    &metrics.Counter{},
		markWalked:     &metrics.Counter{},
		markReused:     &metrics.Counter{},
		markNodeReads:  &metrics.Counter{},
		phaseMark:      metrics.NewHistogram(metrics.DurationBuckets),
		phaseSweep:     metrics.NewHistogram(metrics.DurationBuckets),
		phaseNodeSweep: metrics.NewHistogram(metrics.DurationBuckets),
		phaseRetention: metrics.NewHistogram(metrics.DurationBuckets),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Pin registers a reader on (blob, version) and holds the version in the
// version manager, so retention cannot retire it and a delete cannot free
// it until the pin is released. Pinning a deleted BLOB fails with
// vmanager.ErrDeleted, a version already retired with
// vmanager.ErrBadVersion — the reader lost the race and must not start a
// stream whose chunks are already being reclaimed. Pin implements
// client.Pinner.
//
// The hold is the whole protection of a pinned version: it is taken under
// the version manager's lock, the same one RetireVersions and Delete
// take. On a live BLOB it keeps the version in the BLOB's version list,
// so the mark's ordinary walk (fresh or from the cache) keeps it live;
// when the pin drains the version can only leave through RetireVersions,
// which changes that list, so the next pass walks the BLOB again. On a
// deleted BLOB the mark walks the held versions (see mark). A version
// published after the mark read the list is covered by its writer's
// chunk leases, as for any unpinned version.
func (m *Manager) Pin(blob, version uint64) error {
	if err := m.vm.HoldVersion(blob, version); err != nil {
		return err
	}
	m.mu.Lock()
	m.pins[pinKey{blob, version}]++
	m.mu.Unlock()
	m.pinned.Inc()
	return nil
}

// Unpin releases one pin and its version-manager hold. It frees nothing
// itself: a deleted BLOB's last pin draining lets the next sweep pass
// reclaim its chunks. Unpin implements client.Pinner.
func (m *Manager) Unpin(blob, version uint64) {
	k := pinKey{blob, version}
	m.mu.Lock()
	n := m.pins[k]
	switch {
	case n == 1:
		delete(m.pins, k)
	case n > 1:
		m.pins[k]--
	}
	m.mu.Unlock()
	if n > 0 {
		m.vm.ReleaseVersion(blob, version)
		m.pinned.Dec()
	}
}

// DeleteBlob deletes a BLOB through the lifecycle layer: the BLOB is
// marked deleted in the version manager (new opens and pins fail), and
// nothing is freed here. The sweep reclaims its chunks and tree nodes:
// those of versions no reader holds at the next pass, the rest once the
// last pin drains. DeleteBlob does no I/O, so it cannot be aborted
// part-way. Every layer (gateway, removal strategies, admin tools) must
// route deletions here so liveness stays consistent.
func (m *Manager) DeleteBlob(blob uint64) error {
	if err := m.vm.Delete(blob); err != nil {
		return err
	}
	m.emit.Emit(instrument.Event{
		Time: m.now(), Actor: instrument.ActorGC, Op: instrument.OpDelete, Blob: blob,
	})
	return nil
}

// EnforceRetention evaluates every live BLOB's retention policy at
// instant now and retires the nominated versions. The version manager
// skips any version a reader pin or a writer lease holds (the next pass
// retries it); the report counts those as Held.
func (m *Manager) EnforceRetention(ctx context.Context, now time.Time) (RetentionReport, error) {
	start := m.now()
	rep := RetentionReport{Time: now}
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
		n, err := m.vm.RetireVersions(blob, cands)
		if err != nil {
			// The blob may have been deleted or published to between the
			// candidate read and the retire; retry next pass.
			if firstErr == nil && !errors.Is(err, vmanager.ErrDeleted) {
				firstErr = err
			}
			continue
		}
		rep.Retired += n
		rep.Held += len(cands) - n
	}
	m.retiredVers.Add(int64(rep.Retired))
	m.phaseRetention.Observe(m.now().Sub(start).Seconds())
	return rep, firstErr
}

// Sweep runs one mark-and-sweep pass, the only thing that frees chunks.
// Mark enumerates the descriptors of every retained version of every
// live BLOB plus the held versions of deleted BLOBs; sweep then advances
// every provider's epoch, pages through its chunk inventory and purges
// the unmarked chunks. Providers are paged and purged concurrently (at
// most sweepWorkers at a time), so wall-clock sweep time tracks the
// slowest provider, not the sum. Under dryRun no epoch advances and
// nothing is removed: chunks are classified marked against unmarked, and
// since only a provider's purge checks writer leases, a dry-run counts
// every unmarked chunk as reclaimable, leased or not.
//
// The sweep never excludes the foreground: pins, deletes and writes
// proceed while it runs. A deleted BLOB's unheld chunks go at the first
// pass after the delete; an abandoned writer's chunks go at the first
// pass once its chunk leases are gone. Marking before advancing is what
// makes a released lease safe to drop at the second advance after its
// release: the pass that purges at that epoch marked after the release.
func (m *Manager) Sweep(ctx context.Context, dryRun bool) (SweepReport, error) {
	m.sweepMu.Lock()
	defer m.sweepMu.Unlock()

	rep := SweepReport{Time: m.now(), DryRun: dryRun}
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

	// The metadata-node sweep runs alongside the provider fan-out: it
	// touches only the metadata stores and is one in-memory scan against
	// the mark set.
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
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := m.sweepProvider(ctx, id, ms.chunks, dryRun)
			mu.Lock()
			if res.counted {
				rep.Providers++
			}
			if res.failed {
				rep.Failed++
			}
			rep.Scanned += res.scanned
			rep.Live += res.live
			rep.Swept += res.swept
			rep.SweptBytes += res.sweptBytes
			mu.Unlock()
			if res.err != nil {
				fail(res.err)
			}
		}(id)
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
	counted              bool // provider completed its listing (counts in Providers)
	failed               bool
	scanned, live, swept int
	sweptBytes           int64
	err                  error
}

// sweepProvider advances one provider's epoch (not under dryRun), pages
// its inventory, classifies every chunk against the mark set, and purges
// victims in batches as the scan goes — victims never accumulate past
// one batch beyond the page in flight. Writer leases are not consulted here:
// PurgeChunks skips a leased victim at the moment of the purge, later
// than any view of the leases this scan could take. Reclaimed space is
// counted from what Purge actually freed, not from the classification:
// a leased victim, or a failed provider's, is not reported as swept.
func (m *Manager) sweepProvider(ctx context.Context, id string, marked map[chunk.ID]bool, dryRun bool) provSweep {
	var res provSweep
	p, err := m.prov.Provider(ctx, id)
	if err != nil {
		res.failed = true
		res.err = fmt.Errorf("gc: resolve %s: %w", id, err)
		return res
	}
	// The advance follows the pass's mark, which has succeeded by now: an
	// aborted pass retires no lease, and a dry run advances nothing.
	if !dryRun {
		if _, err := p.AdvanceEpoch(ctx); err != nil {
			res.failed = true
			res.err = fmt.Errorf("gc: advance epoch %s: %w", id, err)
			return res
		}
	}
	var victims []chunk.ID
	flush := func() error {
		for len(victims) > 0 {
			n := min(m.batch, len(victims))
			batch := victims[:n]
			victims = victims[n:]
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
			switch {
			case marked[info.ID]:
				res.live++
			case dryRun:
				// Dry-run reports the classification: what a real
				// sweep would purge. Leased chunks are counted too;
				// only the purge itself checks leases.
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

// Stats returns a snapshot of the lifecycle gauges and counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	entries := len(m.pins)
	m.mu.Unlock()
	return Stats{
		Pins:          int(m.pinned.Value()),
		PinnedEntries: entries,
		SweptChunks:   m.sweptChunks.Value(),
		SweptBytes:    m.sweptBytes.Value(),
		SweptNodes:    m.sweptNodes.Value(),
		RetiredVers:   m.retiredVers.Value(),
	}
}
