// The mark phase: the chunk IDs and tree-node keys that must survive the
// pass, at a cost proportional to what changed since the last one.
//
// Tree nodes are immutable and never shared between BLOBs, and published
// version numbers are handed out once and never come back after
// retirement. So what a BLOB contributes to the mark set — its live
// chunk IDs and its watermark — is a pure function of its retained
// version-number list, and the Manager keeps that contribution per BLOB
// across passes (blobMark). A pass re-walks a BLOB only when the version
// manager's list differs from the cached one, the BLOB is new, a reader
// pins it, or the node sweep has not yet finished with it (settled);
// every other BLOB's chunk IDs come from the cache. The cache starts
// empty, so the first pass walks everything: it is the full pass, by the
// same code. What is held between passes is O(live chunk IDs); the node
// sets the walks produce live for one pass only.
package gc

import (
	"context"
	"fmt"
	"maps"
	"sync"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/vmanager"
)

// blobMark is one live BLOB's cached contribution to the mark set.
// Published marks are immutable: the node sweep settles one by
// replacing it.
type blobMark struct {
	blob     uint64
	versions []uint64   // retained version numbers as the version manager listed them
	wm       uint64     // highest of them: nodes above it may belong to an in-flight publication
	chunks   []chunk.ID // chunk IDs of the leaves reachable from those versions

	// settled records that a real pass range-scanned the BLOB's nodes
	// against the walk of exactly this version list, deleted every
	// unreachable one cleanly, and found no reader pin on the BLOB: until
	// the list changes there is nothing left to classify, so the BLOB
	// needs neither walk nor scan. Dry-runs and Mark never set it.
	settled bool
}

// sameVersions reports whether the cached version list is the one the
// version manager returned.
func (e *blobMark) sameVersions(versions []vmanager.VersionMeta) bool {
	if len(e.versions) != len(versions) {
		return false
	}
	for i, v := range versions {
		if e.versions[i] != v.Version {
			return false
		}
	}
	return true
}

// blobWalk is a BLOB walked this pass: its fresh mark plus what the node
// sweep needs to classify the BLOB's stored nodes.
type blobWalk struct {
	*blobMark
	// nodes holds the keys reachable from a retained or pinned version.
	// It is the walking worker's set, shared by all its walks: node keys
	// carry their BLOB, so the walks never collide.
	nodes  map[blobmeta.NodeKey]struct{}
	pinned bool // a reader pinned the BLOB at the pass's pin read
}

// markWorker is one goroutine's share of the mark fan-out.
type markWorker struct {
	nodes    map[blobmeta.NodeKey]struct{}
	walks    []*blobWalk
	reused   []*blobMark
	versions int // version walks performed
}

// markSet is the mark phase's output: every chunk ID that must survive
// the pass, and for the BLOBs walked this pass the node sets the node
// sweep classifies against.
type markSet struct {
	chunks map[chunk.ID]bool    // live chunk IDs
	walked map[uint64]*blobWalk // BLOBs walked this pass
	dead   []uint64             // deleted, undeferred BLOBs (all their nodes are sweepable)

	// deferred holds the deleted-but-pinned BLOBs: their delete-time
	// snapshots keep chunks marked, and every one of their tree nodes is
	// protected until the last pin drains.
	deferred map[uint64]struct{}

	reused   int // BLOBs marked from the cache
	versions int // version walks performed
	nodes    int // tree nodes the walks read
}

// markBlob adds one live BLOB to wk: from the cache when its settled
// mark still matches the version manager's list (unless force), by a
// fresh walk otherwise. The walk goes newest version first: the newest
// walks its tree in full once and each older version prunes at every
// subtree it shares with a younger one, so the whole BLOB costs
// O(distinct nodes) metadata reads instead of O(versions × nodes). A
// BLOB deleted between enumeration and walk is skipped; any other
// version-manager or metadata error aborts the pass (fail safe: an
// unmarked live chunk is a purge casualty). The walk — returned, nil for
// a reused or vanished BLOB — is recorded only once it has completed.
func (m *Manager) markBlob(ctx context.Context, blob uint64, wk *markWorker, force bool) (*blobWalk, error) {
	versions, err := m.vm.Versions(blob)
	if err != nil {
		if blobGone(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("gc: mark blob %d: list versions: %w", blob, err)
	}
	if !force {
		m.markMu.Lock()
		e := m.marks[blob]
		m.markMu.Unlock()
		if e != nil && e.settled && e.sameVersions(versions) {
			wk.reused = append(wk.reused, e)
			return nil, nil
		}
	}
	tree, err := m.vm.Tree(blob)
	if err != nil {
		if blobGone(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("gc: mark blob %d: open tree: %w", blob, err)
	}
	w := &blobWalk{
		blobMark: &blobMark{blob: blob, versions: make([]uint64, len(versions))},
		nodes:    wk.nodes,
	}
	for i, v := range versions {
		w.versions[i] = v.Version
		w.wm = max(w.wm, v.Version)
	}
	for i := len(versions) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v := versions[i]
		if v.Version == 0 {
			continue
		}
		wk.versions++
		if err := w.walkVersion(tree, tree.Root(v.Version, v.Size), func(id chunk.ID) { w.chunks = append(w.chunks, id) }); err != nil {
			return nil, fmt.Errorf("gc: mark blob %d v%d: %w", blob, v.Version, err)
		}
	}
	wk.walks = append(wk.walks, w)
	return w, nil
}

// walkVersion walks one version of the BLOB's tree into w.nodes, pruning
// at subtrees an earlier walk covered and reporting each live leaf's
// chunk ID.
func (w *blobWalk) walkVersion(tree *blobmeta.Tree, root blobmeta.Root, live func(chunk.ID)) error {
	return tree.WalkNodes(root,
		func(k blobmeta.NodeKey) bool {
			_, seen := w.nodes[k]
			return seen
		},
		func(k blobmeta.NodeKey, n blobmeta.Node) error {
			w.nodes[k] = struct{}{}
			if n.Leaf && !n.Desc.ID.IsZero() {
				live(n.Desc.ID)
			}
			return nil
		})
}

// mark enumerates everything that must survive the sweep: the chunk IDs
// reachable from the retained versions of live BLOBs — including
// descriptors republished by self-optimization repairs, which appear as
// ordinary versions — plus pinned versions and the delete-time snapshots
// of deferred (pinned) BLOBs. BLOBs fan out over a bounded worker pool;
// all versions of one BLOB stay on one worker so its shared-subtree
// prune set is worker-local. The per-BLOB cache is replaced only once
// every walk has completed: an aborted pass leaves it as it was.
func (m *Manager) mark(ctx context.Context) (*markSet, error) {
	blobs := m.vm.Blobs()
	workers := m.markWorkers
	if workers > len(blobs) {
		workers = len(blobs)
	}
	if workers < 1 {
		workers = 1
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One extra worker slot: the coordinating goroutine's own walks of
	// pinned BLOBs, after the fan-out.
	locals := make([]*markWorker, workers+1)
	for i := range locals {
		locals[i] = &markWorker{nodes: make(map[blobmeta.NodeKey]struct{})}
	}
	jobs := make(chan uint64)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel() // a mark failure aborts the whole pass; stop the fan-out
	}
	for _, wk := range locals[:workers] {
		wg.Add(1)
		go func(wk *markWorker) {
			defer wg.Done()
			for blob := range jobs {
				if _, err := m.markBlob(wctx, blob, wk, false); err != nil {
					fail(err)
					return
				}
			}
		}(wk)
	}
feed:
	for _, blob := range blobs {
		select {
		case jobs <- blob:
		case <-wctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Gather the workers' shares. BLOBs are disjoint across workers;
	// chunk IDs can repeat (shared content across BLOBs) and the boolean
	// union is exactly right.
	ms := &markSet{
		walked:   make(map[uint64]*blobWalk),
		deferred: make(map[uint64]struct{}),
	}
	next := make(map[uint64]*blobMark, len(blobs))
	nChunks := 0
	for _, wk := range locals {
		for _, e := range wk.reused {
			next[e.blob] = e
			nChunks += len(e.chunks)
		}
		for _, w := range wk.walks {
			ms.walked[w.blob] = w
			next[w.blob] = w.blobMark
			nChunks += len(w.chunks)
		}
	}
	ms.chunks = make(map[chunk.ID]bool, nChunks)
	for _, e := range next {
		for _, id := range e.chunks {
			ms.chunks[id] = true
		}
	}

	// Deleted-BLOB snapshot for the node sweep, read BEFORE the barrier:
	// a delete whose DeleteExact landed before this read may still be
	// inserting its deferred entry, and the barrier below waits that
	// handoff out — so by the deferred read every such BLOB is either in
	// the deferred map (excluded from dead) or has no pins (sweepable).
	// A BLOB deleted after this read is in neither set; its nodes are
	// classified by the per-BLOB watermark instead, which only ever
	// releases nodes unreachable from the versions walked above.
	rawDead := m.vm.DeletedBlobs()

	// Ordering barrier between the version walks above and the
	// deferred-snapshot read below: DeleteBlob holds the fence's read
	// side across its DeleteExact→snapshot handoff, so acquiring and
	// releasing the write side here guarantees that (a) any delete whose
	// DeleteExact made a walk above fail has finished inserting its
	// deferred snapshot — the read below sees it — and (b) any delete
	// starting after the barrier runs entirely after the walks, whose
	// enumeration therefore saw its BLOB live and marked its chunks.
	// Either way a pinned reader's chunks survive. The lock is not held
	// over anything: foreground deletes wait a blip, never the walks.
	m.fence.Lock()
	m.fence.Unlock() //nolint:staticcheck // empty section is the barrier
	m.mu.Lock()
	for blob, def := range m.deferred {
		ms.deferred[blob] = struct{}{}
		for _, id := range def.chunkIDs() {
			ms.chunks[id] = true
		}
	}
	pinned := maps.Clone(m.pins)
	m.mu.Unlock()
	for _, blob := range rawDead {
		if _, ok := ms.deferred[blob]; !ok {
			ms.dead = append(ms.dead, blob)
		}
	}
	// A pinned BLOB is always walked, never taken from the cache, and
	// never settled while the pin lasts: its pinned versions are marked
	// even when retention has already retired them (a reader may have
	// pinned between the retention pass's pin check and the retire).
	// Version metadata is gone but the tree nodes survive retirement, so
	// the walk still resolves — and marking their node keys keeps the
	// node sweep from dropping them while the pin lasts. Once the pin
	// drains the BLOB is still unsettled, so the next pass walks and
	// scans it again and reclaims what only the pinned version reached.
	// Pinned versions of deleted BLOBs are covered by the deferred
	// snapshots above.
	late := locals[workers]
	live := func(id chunk.ID) { ms.chunks[id] = true }
	for k, p := range pinned {
		w := ms.walked[k.blob]
		if w == nil {
			var err error
			if w, err = m.markBlob(ctx, k.blob, late, true); err != nil {
				return nil, err
			}
			if w == nil {
				// Deleted since the fan-out: a delete before the barrier
				// left its deferred snapshot above, one after it found the
				// BLOB's cached mark already in ms.chunks.
				continue
			}
			ms.walked[k.blob], next[k.blob] = w, w.blobMark
			for _, id := range w.chunks {
				ms.chunks[id] = true
			}
		}
		w.pinned = true
		if k.version == 0 {
			continue
		}
		tree, err := m.vm.Tree(k.blob)
		if err != nil {
			if blobGone(err) {
				continue // deleted: covered by the deferred snapshot above
			}
			return nil, fmt.Errorf("gc: mark pinned blob %d: open tree: %w", k.blob, err)
		}
		if err := w.walkVersion(tree, p.root, live); err != nil {
			// Fail safe, exactly like the live-blob walk: an unmarked
			// pinned version would let the purge truncate an in-flight
			// stream.
			return nil, fmt.Errorf("gc: mark pinned blob %d v%d: %w", k.blob, k.version, err)
		}
	}

	ms.reused = len(next) - len(ms.walked)
	for _, wk := range locals {
		ms.versions += wk.versions
		ms.nodes += len(wk.nodes)
	}
	// Every walk completed: publish the pass's marks. Entries of BLOBs no
	// longer live are not carried over.
	m.markMu.Lock()
	m.marks = next
	m.markMu.Unlock()

	m.markWalked.Add(int64(len(ms.walked)))
	m.markReused.Add(int64(ms.reused))
	m.markNodeReads.Add(int64(ms.nodes))
	// One event per pass, not one per node read: the walk is maintenance,
	// not client metadata load (see blobmeta.Store.Peek).
	m.emit.Emit(instrument.Event{
		Time: m.now(), Actor: instrument.ActorGC, Op: instrument.OpMark,
		Value: float64(ms.nodes), Offset: int64(len(ms.walked)), Bytes: int64(ms.reused),
	})
	return ms, nil
}

// Mark runs the mark phase alone — no epoch advance, no reclamation —
// and reports its coverage: how many live BLOBs it marked, how many
// version walks and node reads that took (BLOBs whose settled mark was
// reused cost neither), and how many distinct chunks are live.
// Diagnostics and benchmarking; safe to run concurrently with sweeps and
// foreground traffic — a Mark that listed a version just before
// retention retired it and a sweep dropped its nodes fails (a missing
// node) rather than report a partial mark.
func (m *Manager) Mark(ctx context.Context) (MarkReport, error) {
	ms, err := m.mark(ctx)
	if err != nil {
		return MarkReport{}, err
	}
	return MarkReport{
		Blobs:    len(ms.walked) + ms.reused,
		Versions: ms.versions,
		Chunks:   len(ms.chunks),
		Nodes:    ms.nodes,
	}, nil
}
