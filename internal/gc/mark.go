// The mark phase: the chunk IDs and tree-node keys that must survive the
// pass, at a cost proportional to what changed since the last one.
//
// Tree nodes are immutable and never shared between BLOBs, and published
// version numbers are handed out once and never come back after
// retirement. So what a BLOB contributes to the mark set — its live
// chunk IDs and its watermark — is a pure function of its retained
// version-number list, and the Manager keeps that contribution per BLOB
// across passes (blobMark). A pass re-walks a BLOB only when the version
// manager's list differs from the cached one, the BLOB is new, or the
// node sweep has not yet finished with it (settled); every other BLOB's
// chunk IDs come from the cache. A reader pin changes nothing here: it
// holds its version in the list (see Manager.Pin). The cache starts
// empty, so the first pass walks everything: it is the full pass, by the
// same code. What is held between passes is O(live chunk IDs); the node
// sets the walks produce live for one pass only.
package gc

import (
	"context"
	"errors"
	"fmt"
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
	// against the walk of exactly this version list and deleted every
	// unreachable one cleanly: until the list changes there is nothing
	// left to classify, so the BLOB needs neither walk nor scan. Dry-runs
	// and Mark never set it.
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
	// nodes holds the keys reachable from a retained version. It is the
	// walking worker's set, shared by all its walks: node keys carry
	// their BLOB, so the walks never collide.
	nodes map[blobmeta.NodeKey]struct{}
}

// newBlobWalk starts the walk of one BLOB's versions into nodes.
func newBlobWalk(blob uint64, versions []vmanager.VersionMeta, nodes map[blobmeta.NodeKey]struct{}) *blobWalk {
	w := &blobWalk{
		blobMark: &blobMark{blob: blob, versions: make([]uint64, len(versions))},
		nodes:    nodes,
	}
	for i, v := range versions {
		w.versions[i] = v.Version
		w.wm = max(w.wm, v.Version)
	}
	return w
}

// walk records the nodes and chunk IDs reachable from versions. It goes
// newest version first: the newest walks its tree in full once and each
// older version prunes at every subtree it shares with a younger one, so
// the whole BLOB costs O(distinct nodes) metadata reads instead of
// O(versions × nodes).
func (w *blobWalk) walk(ctx context.Context, tree *blobmeta.Tree, versions []vmanager.VersionMeta) error {
	for i := len(versions) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		v := versions[i]
		if v.Version == 0 {
			continue
		}
		err := tree.WalkNodes(tree.Root(v.Version, v.Size),
			func(k blobmeta.NodeKey) bool {
				_, seen := w.nodes[k]
				return seen
			},
			func(k blobmeta.NodeKey, n blobmeta.Node) error {
				w.nodes[k] = struct{}{}
				if n.Leaf && !n.Desc.ID.IsZero() {
					w.chunks = append(w.chunks, n.Desc.ID)
				}
				return nil
			})
		if err != nil {
			return fmt.Errorf("gc: mark blob %d v%d: %w", w.blob, v.Version, err)
		}
	}
	return nil
}

// markWorker is one goroutine's share of the mark fan-out.
type markWorker struct {
	nodes  map[blobmeta.NodeKey]struct{}
	walks  []*blobWalk
	reused []*blobMark
}

// markSet is the mark phase's output: every chunk ID that must survive
// the pass, and for the BLOBs walked this pass the node sets the node
// sweep classifies against.
type markSet struct {
	chunks map[chunk.ID]bool    // live chunk IDs
	walked map[uint64]*blobWalk // BLOBs walked this pass
	dead   []uint64             // deleted BLOBs nothing holds (all their nodes are sweepable)

	// held holds the deleted BLOBs some version of which a hold (a
	// reader pin) still protects: the held versions' chunks are marked,
	// and every one of the BLOB's tree nodes is kept until the last hold
	// drains.
	held map[uint64]struct{}

	reused int // BLOBs marked from the cache
	nodes  int // tree nodes the walks read
}

// markBlob adds one live BLOB to wk: from the cache when its settled
// mark still matches the version manager's list, by a fresh walk
// otherwise. A BLOB deleted between enumeration and walk is skipped (the
// mark's later read of the deleted BLOBs takes it up); any other
// version-manager or metadata error aborts the pass (fail safe: an
// unmarked live chunk is a purge casualty). The walk is recorded only
// once it has completed.
func (m *Manager) markBlob(ctx context.Context, blob uint64, wk *markWorker) error {
	versions, err := m.vm.Versions(blob)
	if err != nil {
		if blobGone(err) {
			return nil
		}
		return fmt.Errorf("gc: mark blob %d: list versions: %w", blob, err)
	}
	m.markMu.Lock()
	e := m.marks[blob]
	m.markMu.Unlock()
	if e != nil && e.settled && e.sameVersions(versions) {
		wk.reused = append(wk.reused, e)
		return nil
	}
	tree, err := m.vm.Tree(blob)
	if err != nil {
		if blobGone(err) {
			return nil
		}
		return fmt.Errorf("gc: mark blob %d: open tree: %w", blob, err)
	}
	w := newBlobWalk(blob, versions, wk.nodes)
	if err := w.walk(ctx, tree, versions); err != nil {
		return err
	}
	wk.walks = append(wk.walks, w)
	return nil
}

// mark enumerates everything that must survive the sweep: the chunks of
// publications queued behind an in-flight predecessor, the chunk IDs
// reachable from the retained versions of live BLOBs — including
// descriptors republished by self-optimization repairs, which appear as
// ordinary versions, and pinned versions, which their pins hold in the
// version list (see Manager.Pin) — plus the held versions of deleted
// BLOBs. Live BLOBs fan out over a bounded worker pool;
// all versions of one BLOB stay on one worker so its shared-subtree
// prune set is worker-local. The per-BLOB cache is replaced only once
// every walk has completed: an aborted pass leaves it as it was.
func (m *Manager) mark(ctx context.Context) (*markSet, error) {
	// Before any walk: a version queued now is walked if it publishes.
	queued := m.vm.QueuedChunks()
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
	locals := make([]*markWorker, workers)
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
	for _, wk := range locals {
		wg.Add(1)
		go func(wk *markWorker) {
			defer wg.Done()
			for blob := range jobs {
				if err := m.markBlob(wctx, blob, wk); err != nil {
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
		walked: make(map[uint64]*blobWalk),
		held:   make(map[uint64]struct{}),
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
	ms.chunks = make(map[chunk.ID]bool, nChunks+len(queued))
	for _, id := range queued {
		ms.chunks[id] = true
	}
	for _, e := range next {
		for _, id := range e.chunks {
			ms.chunks[id] = true
		}
	}

	// The deleted BLOBs, read only now that every live walk has
	// finished: a BLOB deleted before its walk (which skipped it) is in
	// this list, and one deleted after its walk had all its retained
	// versions, held ones included, marked by that walk. A deleted BLOB
	// takes no new holds, so the versions HeldVersions returns are all
	// its readers can still read. A BLOB deleted after this read is not
	// in the dead set; its nodes are classified by the per-BLOB
	// watermark instead, which only ever releases nodes unreachable from
	// the versions walked above.
	for _, blob := range m.vm.DeletedBlobs() {
		tree, held, err := m.vm.HeldVersions(blob)
		switch {
		case errors.Is(err, vmanager.ErrNoBlob):
			// Forgotten since the listing: nothing held it.
		case err != nil:
			return nil, fmt.Errorf("gc: mark deleted blob %d: %w", blob, err)
		case len(held) == 0:
			ms.dead = append(ms.dead, blob)
		default:
			ms.held[blob] = struct{}{}
			w := newBlobWalk(blob, held, make(map[blobmeta.NodeKey]struct{}))
			if err := w.walk(ctx, tree, held); err != nil {
				return nil, err
			}
			for _, id := range w.chunks {
				ms.chunks[id] = true
			}
			ms.nodes += len(w.nodes)
		}
	}

	ms.reused = len(next) - len(ms.walked)
	for _, wk := range locals {
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
