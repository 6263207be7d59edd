// Package vmanager implements BlobSeer's version manager: the actor that
// serializes concurrent write requests and publishes a new BLOB version
// for each write or append.
//
// The protocol mirrors BlobSeer's: a writer first asks for a version
// ticket (Assign), then transfers its chunks to data providers in
// parallel, and finally submits the chunk descriptors (Publish). The
// version manager applies publications strictly in version order, so a
// version becomes visible only after all its predecessors, which yields
// total-order snapshot semantics without blocking readers.
package vmanager

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
)

// Errors returned by the version manager.
var (
	ErrNoBlob        = errors.New("vmanager: unknown blob")
	ErrBadVersion    = errors.New("vmanager: version was never assigned")
	ErrDoublePublish = errors.New("vmanager: version already published or pending")
	ErrDeleted       = errors.New("vmanager: blob deleted")
	ErrRetireLatest  = errors.New("vmanager: cannot retire the latest version")
)

// Retention is a per-BLOB version-retention policy, evaluated by the
// garbage collector. The zero value keeps every version forever (the
// classic BlobSeer model). Each knob independently nominates candidates:
// KeepLast > 0 nominates everything beyond the newest N published
// versions, MaxAge > 0 nominates versions published longer ago than
// MaxAge. The latest published version is never nominated.
type Retention struct {
	KeepLast int           // keep at most the newest N published versions (0 = all)
	MaxAge   time.Duration // retire versions older than this (0 = no age bound)
}

// zero reports whether the policy retains everything.
func (r Retention) zero() bool { return r.KeepLast <= 0 && r.MaxAge <= 0 }

// BlobInfo describes a BLOB.
type BlobInfo struct {
	ID        uint64
	Owner     string
	ChunkSize int64
	Created   time.Time
	Temporary bool // candidate for the "temporary data" removal strategy
}

// VersionMeta describes one published version.
type VersionMeta struct {
	Version   uint64
	Size      int64 // BLOB size as of this version
	Writer    string
	Published time.Time
}

// Ticket is a write admission: the assigned version, the offset the write
// lands at (resolved for appends) and the BLOB's chunk size.
type Ticket struct {
	Blob      uint64
	Version   uint64
	Offset    int64
	ChunkSize int64
}

type pendingPub struct {
	writes map[int64]chunk.Desc
	writer string
}

type blobState struct {
	info      BlobInfo
	tree      *blobmeta.Tree
	nextVer   uint64           // next version to assign (first assigned is 1)
	applied   uint64           // highest published (contiguous) version
	tail      int64            // end offset over all *assigned* writes
	ends      map[uint64]int64 // assigned version -> end offset of its write
	queued    map[uint64]pendingPub
	versions  map[uint64]VersionMeta
	holds     map[uint64]int // version -> writer-lease hold count
	retention Retention
	deleted   bool
}

// Manager is the version-manager actor.
type Manager struct {
	mu       sync.Mutex
	store    blobmeta.Store
	emit     instrument.Emitter
	now      func() time.Time
	nextBlob uint64
	blobs    map[uint64]*blobState
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

// New returns a version manager persisting metadata into store.
func New(store blobmeta.Store, opts ...Option) *Manager {
	m := &Manager{
		store: store,
		emit:  instrument.Nop{},
		now:   time.Now,
		blobs: make(map[uint64]*blobState),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Create registers a new BLOB and returns its description.
func (m *Manager) Create(owner string, chunkSize int64, temporary bool) (BlobInfo, error) {
	if chunkSize <= 0 {
		chunkSize = chunk.DefaultSize
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextBlob++
	id := m.nextBlob
	info := BlobInfo{ID: id, Owner: owner, ChunkSize: chunkSize, Created: m.now(), Temporary: temporary}
	m.blobs[id] = &blobState{
		info:     info,
		tree:     blobmeta.NewTree(m.store, id, chunkSize),
		nextVer:  1,
		ends:     make(map[uint64]int64),
		queued:   make(map[uint64]pendingPub),
		versions: map[uint64]VersionMeta{0: {Version: 0, Published: info.Created}},
	}
	m.emit.Emit(instrument.Event{
		Time: m.now(), Actor: instrument.ActorVManager, User: owner,
		Op: instrument.OpCreate, Blob: id,
	})
	return info, nil
}

func (m *Manager) state(blob uint64) (*blobState, error) {
	st, ok := m.blobs[blob]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoBlob, blob)
	}
	if st.deleted {
		return nil, fmt.Errorf("%w: %d", ErrDeleted, blob)
	}
	return st, nil
}

// Info returns the BLOB description.
func (m *Manager) Info(blob uint64) (BlobInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(blob)
	if err != nil {
		return BlobInfo{}, err
	}
	return st.info, nil
}

// Blobs lists live BLOB IDs in ascending order.
func (m *Manager) Blobs() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.blobs))
	for id, st := range m.blobs {
		if !st.deleted {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeletedBlobs lists BLOBs marked deleted but not yet forgotten, in
// ascending order. Their metadata-tree nodes are still in the metadata
// store; the garbage collector's node sweep reclaims them and then
// calls Forget.
func (m *Manager) DeletedBlobs() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0)
	for id, st := range m.blobs {
		if st.deleted {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Forget drops a deleted BLOB's bookkeeping entirely, ending its
// DeletedBlobs listing. Only the garbage collector calls it, after the
// BLOB's tree nodes have been reclaimed. Forgetting a live BLOB is
// refused; forgetting an unknown one is a no-op (sweeps may retry).
func (m *Manager) Forget(blob uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.blobs[blob]
	if !ok {
		return nil
	}
	if !st.deleted {
		return fmt.Errorf("vmanager: blob %d is live, refusing to forget", blob)
	}
	delete(m.blobs, blob)
	return nil
}

// MetaStore returns the metadata store the manager persists trees into —
// the garbage collector's node-sweep surface.
func (m *Manager) MetaStore() blobmeta.Store { return m.store }

// AssignWrite admits a write of length bytes at a fixed offset and
// returns its ticket.
func (m *Manager) AssignWrite(blob uint64, user string, offset, length int64) (Ticket, error) {
	if offset < 0 || length < 0 {
		return Ticket{}, fmt.Errorf("vmanager: negative offset or length")
	}
	return m.assign(blob, user, offset, length, false)
}

// AssignAppend admits an append of length bytes; the offset is resolved
// against the end of the last assigned write, so concurrent appends get
// disjoint ranges (BlobSeer's append semantics).
func (m *Manager) AssignAppend(blob uint64, user string, length int64) (Ticket, error) {
	if length < 0 {
		return Ticket{}, fmt.Errorf("vmanager: negative length")
	}
	return m.assign(blob, user, -1, length, true)
}

func (m *Manager) assign(blob uint64, user string, offset, length int64, isAppend bool) (Ticket, error) {
	m.mu.Lock()
	st, err := m.state(blob)
	if err != nil {
		m.mu.Unlock()
		return Ticket{}, err
	}
	if isAppend {
		offset = st.tail
	}
	v := st.nextVer
	st.nextVer++
	end := offset + length
	st.ends[v] = end
	if end > st.tail {
		st.tail = end
	}
	t := Ticket{Blob: blob, Version: v, Offset: offset, ChunkSize: st.info.ChunkSize}
	m.mu.Unlock()
	op := instrument.OpAssign
	m.emit.Emit(instrument.Event{
		Time: m.now(), Actor: instrument.ActorVManager, User: user,
		Op: op, Blob: blob, Version: v, Offset: offset, Bytes: length,
	})
	return t, nil
}

// Publish submits the chunk descriptors of an assigned version. The
// version becomes visible once all predecessors have been published;
// until then it is queued. writes maps chunk index → descriptor; an index
// outside the BLOB as the version is certain to see it — the published
// size or its own write's end, whichever is larger — refuses the
// publication with blobmeta.ErrBadRange and leaves the version assigned.
func (m *Manager) Publish(blob uint64, version uint64, writer string, writes map[int64]chunk.Desc) error {
	lowest, highest := int64(0), int64(-1)
	for idx := range writes {
		lowest, highest = min(lowest, idx), max(highest, idx)
	}
	m.mu.Lock()
	st, err := m.state(blob)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	if version == 0 || version >= st.nextVer {
		m.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	if version <= st.applied {
		m.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrDoublePublish, version)
	}
	if _, dup := st.queued[version]; dup {
		m.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrDoublePublish, version)
	}
	// What drainLocked will size the version's tree by is at least this,
	// so a write accepted here can never fail to fit its root there.
	size := max(st.versions[st.applied].Size, st.ends[version])
	if slots := (size + st.info.ChunkSize - 1) / st.info.ChunkSize; lowest < 0 || highest >= slots {
		m.mu.Unlock()
		return fmt.Errorf("%w: v%d writes chunks [%d,%d] of a %d-chunk blob", blobmeta.ErrBadRange, version, lowest, highest, slots)
	}
	st.queued[version] = pendingPub{writes: writes, writer: writer}
	published, err := m.drainLocked(st)
	m.mu.Unlock()
	for _, v := range published {
		m.emit.Emit(instrument.Event{
			Time: m.now(), Actor: instrument.ActorVManager, User: writer,
			Op: instrument.OpPublish, Blob: blob, Version: v,
		})
	}
	return err
}

// Abort publishes an empty write for an assigned version, unblocking the
// chain when a writer dies after Assign.
func (m *Manager) Abort(blob uint64, version uint64) error {
	return m.Publish(blob, version, "", nil)
}

// drainLocked applies queued publications in version order starting at
// applied+1. Returns the versions made visible.
func (m *Manager) drainLocked(st *blobState) ([]uint64, error) {
	var published []uint64
	for {
		next := st.applied + 1
		pub, ok := st.queued[next]
		if !ok {
			return published, nil
		}
		base := st.versions[st.applied]
		size := base.Size
		if end := st.ends[next]; end > size && len(pub.writes) > 0 {
			size = end
		}
		// A write that outgrows the base's root puts a new root on top of it.
		if err := st.tree.Write(st.tree.Root(next, size), st.tree.Root(base.Version, base.Size), pub.writes); err != nil {
			return published, err
		}
		delete(st.queued, next)
		delete(st.ends, next)
		st.versions[next] = VersionMeta{
			Version: next, Size: size, Writer: pub.writer, Published: m.now(),
		}
		st.applied = next
		published = append(published, next)
	}
}

// Latest returns the newest published version's metadata.
func (m *Manager) Latest(blob uint64) (VersionMeta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(blob)
	if err != nil {
		return VersionMeta{}, err
	}
	return st.versions[st.applied], nil
}

// Version returns the metadata of one published version.
func (m *Manager) Version(blob, version uint64) (VersionMeta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(blob)
	if err != nil {
		return VersionMeta{}, err
	}
	vm, ok := st.versions[version]
	if !ok {
		return VersionMeta{}, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	return vm, nil
}

// Versions lists the published versions of a BLOB in ascending order.
func (m *Manager) Versions(blob uint64) ([]VersionMeta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(blob)
	if err != nil {
		return nil, err
	}
	out := make([]VersionMeta, 0, len(st.versions))
	for _, vm := range st.versions {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out, nil
}

// PendingCount returns the number of assigned-but-unpublished versions
// (a health signal for the monitoring layer).
func (m *Manager) PendingCount(blob uint64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(blob)
	if err != nil {
		return 0, err
	}
	return int(st.nextVer - 1 - st.applied), nil
}

// Tree exposes the metadata tree of a BLOB for read-side components
// (client reads, replication scans).
func (m *Manager) Tree(blob uint64) (*blobmeta.Tree, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(blob)
	if err != nil {
		return nil, err
	}
	return st.tree, nil
}

// SetRetention installs the BLOB's version-retention policy. The zero
// Retention restores keep-everything.
func (m *Manager) SetRetention(blob uint64, r Retention) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(blob)
	if err != nil {
		return err
	}
	st.retention = r
	return nil
}

// RetentionOf returns the BLOB's version-retention policy.
func (m *Manager) RetentionOf(blob uint64) (Retention, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(blob)
	if err != nil {
		return Retention{}, err
	}
	return st.retention, nil
}

// RetentionCandidates returns the published versions the BLOB's policy
// nominates for retirement at instant now, in ascending order. The
// latest published version and the empty version 0 are never nominated.
// Callers (the garbage collector) filter out pinned versions before
// retiring.
func (m *Manager) RetentionCandidates(blob uint64, now time.Time) ([]uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(blob)
	if err != nil {
		return nil, err
	}
	if st.retention.zero() {
		return nil, nil
	}
	published := make([]uint64, 0, len(st.versions))
	for v := range st.versions {
		if v > 0 && v <= st.applied {
			published = append(published, v)
		}
	}
	sort.Slice(published, func(i, j int) bool { return published[i] < published[j] })
	nominated := map[uint64]bool{}
	if n := st.retention.KeepLast; n > 0 && len(published) > n {
		for _, v := range published[:len(published)-n] {
			nominated[v] = true
		}
	}
	if age := st.retention.MaxAge; age > 0 {
		cutoff := now.Add(-age)
		for _, v := range published {
			if v != st.applied && st.versions[v].Published.Before(cutoff) {
				nominated[v] = true
			}
		}
	}
	delete(nominated, st.applied)
	out := make([]uint64, 0, len(nominated))
	for v := range nominated {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// RetireVersions removes the metadata of the given published versions,
// making them unreadable and — once the next sweep runs — reclaimable:
// chunks referenced only by retired versions stop being marked live.
// The latest published version cannot be retired; unknown versions fail
// with ErrBadVersion. Metadata-tree nodes of retired versions stay in
// the metadata store (chunk space, not node space, is what grows without
// bound). Returns how many versions were retired.
func (m *Manager) RetireVersions(blob uint64, vers []uint64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(blob)
	if err != nil {
		return 0, err
	}
	// A version held by a live writer lease (HoldVersion) is silently
	// skipped, not an error: retention keeps running and retires it on a
	// later pass once the writer finishes its partial-slot merges.
	if len(st.holds) > 0 {
		kept := vers[:0:0]
		for _, v := range vers {
			if st.holds[v] == 0 {
				kept = append(kept, v)
			}
		}
		vers = kept
	}
	// Validate the whole batch first so a bad entry retires nothing.
	for _, v := range vers {
		if v == st.applied {
			return 0, fmt.Errorf("%w: %d", ErrRetireLatest, v)
		}
		if _, ok := st.versions[v]; !ok || v == 0 {
			return 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
		}
	}
	for _, v := range vers {
		delete(st.versions, v)
	}
	if len(vers) > 0 {
		m.emit.Emit(instrument.Event{
			Time: m.now(), Actor: instrument.ActorVManager, Op: instrument.OpRetire,
			Blob: blob, Value: float64(len(vers)),
		})
	}
	return len(vers), nil
}

// HoldVersion pins one published version against retirement on behalf
// of a writer lease: RetireVersions silently skips held versions until
// the matching ReleaseVersion, so a BlobWriter's partial-slot merges
// can keep reading their base version's metadata mid-stream. Holds
// nest (one count per open lease). Holding an unknown version fails
// with ErrBadVersion.
func (m *Manager) HoldVersion(blob, version uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.state(blob)
	if err != nil {
		return err
	}
	if _, ok := st.versions[version]; !ok {
		return fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	if st.holds == nil {
		st.holds = make(map[uint64]int)
	}
	st.holds[version]++
	return nil
}

// ReleaseVersion drops one HoldVersion count. It is tolerant of
// deleted blobs and unknown versions (the blob may have been deleted
// while the writer streamed; release must still succeed).
func (m *Manager) ReleaseVersion(blob, version uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.blobs[blob]
	if !ok || st.holds == nil {
		return
	}
	if st.holds[version] > 1 {
		st.holds[version]--
	} else {
		delete(st.holds, version)
	}
}

// VersionSlots lists one published version's per-slot chunk descriptors
// (holes omitted) in ascending slot order.
type VersionSlots struct {
	Version uint64
	Slots   []chunk.Desc
}

// DeleteExact marks the BLOB deleted like Delete, but returns every
// retained version's per-slot descriptors instead of one deduplicated
// set: a slot whose content repeats elsewhere appears once per slot, so
// a caller reclaiming a single-version BLOB can balance provider
// refcounts exactly (the garbage collector's fast path; multi-version
// BLOBs share unchanged slots across versions and are reclaimed by the
// sweep instead).
func (m *Manager) DeleteExact(blob uint64) ([]VersionSlots, error) {
	m.mu.Lock()
	st, err := m.state(blob)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	st.deleted = true
	tree := st.tree
	roots := make([]blobmeta.Root, 0, len(st.versions))
	for v, vm := range st.versions {
		if v > 0 {
			roots = append(roots, tree.Root(v, vm.Size))
		}
	}
	m.mu.Unlock()
	sort.Slice(roots, func(i, j int) bool { return roots[i].Version < roots[j].Version })

	out := make([]VersionSlots, 0, len(roots))
	for _, root := range roots {
		vs := VersionSlots{Version: root.Version}
		err := tree.Walk(root, func(_ int64, d chunk.Desc) error {
			vs.Slots = append(vs.Slots, d)
			return nil
		})
		if err != nil {
			return out, err
		}
		out = append(out, vs)
	}
	m.emit.Emit(instrument.Event{
		Time: m.now(), Actor: instrument.ActorVManager, Op: instrument.OpDelete, Blob: blob,
	})
	return out, nil
}

// Delete marks a BLOB deleted and returns the *distinct* chunk
// descriptors reachable from all its published versions so the caller
// can reclaim provider space (used by the self-optimization removal
// strategies). Descriptors are deduplicated by chunk ID: a chunk whose
// content repeats across slots or versions is returned once, so callers
// that reclaim by decrementing per-descriptor under-release repeated
// content — use DeleteExact (single-version) or the gc sweep when exact
// reclamation matters.
func (m *Manager) Delete(blob uint64) ([]chunk.Desc, error) {
	versions, err := m.DeleteExact(blob)
	seen := map[chunk.ID]bool{}
	var out []chunk.Desc
	for _, vs := range versions {
		for _, d := range vs.Slots {
			if !seen[d.ID] {
				seen[d.ID] = true
				out = append(out, d)
			}
		}
	}
	return out, err
}
