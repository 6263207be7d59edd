// The mark phase: walk every retained version of every live BLOB into
// the set of chunk IDs and tree-node keys that must survive the pass.
package gc

import (
	"context"
	"fmt"
	"sync"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
)

// markSet is the mark phase's output: every chunk ID and metadata-node
// key that must survive the pass, plus the bookkeeping snapshots the
// node sweep classifies against.
type markSet struct {
	chunks map[chunk.ID]bool             // live chunk IDs
	nodes  map[blobmeta.NodeKey]struct{} // node keys reachable from a retained or pinned version
	wm     map[uint64]uint64             // live blob -> highest published version at mark time
	dead   []uint64                      // deleted, undeferred BLOBs (all their nodes are sweepable)

	// deferred holds the deleted-but-pinned BLOBs: their delete-time
	// snapshots keep chunks marked, and every one of their tree nodes is
	// protected until the last pin drains.
	deferred map[uint64]struct{}

	blobs, versions int // walk diagnostics
}

func newMarkSet() *markSet {
	return &markSet{
		chunks:   make(map[chunk.ID]bool),
		nodes:    make(map[blobmeta.NodeKey]struct{}),
		wm:       make(map[uint64]uint64),
		deferred: make(map[uint64]struct{}),
	}
}

// markBlob walks every retained version of one live BLOB into ms,
// newest version first: the newest walks its tree in full once and each
// older version prunes at every subtree it shares with a younger one,
// so the whole BLOB costs O(distinct nodes) metadata reads instead of
// O(versions × nodes). A BLOB deleted between enumeration and walk is
// skipped; any other version-manager or metadata error aborts the pass
// (fail safe: an unmarked live chunk is a purge casualty).
func (m *Manager) markBlob(ctx context.Context, blob uint64, ms *markSet) error {
	versions, err := m.vm.Versions(blob)
	if err != nil {
		if blobGone(err) {
			return nil
		}
		return fmt.Errorf("gc: mark blob %d: list versions: %w", blob, err)
	}
	tree, err := m.vm.Tree(blob)
	if err != nil {
		if blobGone(err) {
			return nil
		}
		return fmt.Errorf("gc: mark blob %d: open tree: %w", blob, err)
	}
	var wm uint64
	for _, v := range versions {
		if v.Version > wm {
			wm = v.Version
		}
	}
	ms.wm[blob] = wm
	ms.blobs++
	prune := func(k blobmeta.NodeKey) bool {
		_, seen := ms.nodes[k]
		return seen
	}
	visit := func(k blobmeta.NodeKey, n blobmeta.Node) error {
		ms.nodes[k] = struct{}{}
		if n.Leaf && !n.Desc.ID.IsZero() {
			ms.chunks[n.Desc.ID] = true
		}
		return nil
	}
	for i := len(versions) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		v := versions[i]
		if v.Version == 0 {
			continue
		}
		ms.versions++
		if err := tree.WalkNodes(v.Version, prune, visit); err != nil {
			return fmt.Errorf("gc: mark blob %d v%d: %w", blob, v.Version, err)
		}
	}
	return nil
}

// mark enumerates everything that must survive the sweep: the chunk IDs
// and tree-node keys reachable from the retained versions of live BLOBs
// — including descriptors republished by self-optimization repairs,
// which appear as ordinary versions — plus pinned versions and the
// delete-time snapshots of deferred (pinned) BLOBs. BLOBs fan out over
// a bounded worker pool; all versions of one BLOB stay on one worker so
// its shared-subtree prune set is worker-local.
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
	locals := make([]*markSet, workers)
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
	for w := 0; w < workers; w++ {
		local := newMarkSet()
		locals[w] = local
		wg.Add(1)
		go func(local *markSet) {
			defer wg.Done()
			for blob := range jobs {
				if err := m.markBlob(wctx, blob, local); err != nil {
					fail(err)
					return
				}
			}
		}(local)
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

	// Merge the worker-local sets. BLOBs are disjoint across workers, so
	// node keys and watermarks never collide; chunk IDs can (shared
	// content across BLOBs) and the boolean union is exactly right.
	ms := newMarkSet()
	for _, local := range locals {
		for id := range local.chunks {
			ms.chunks[id] = true
		}
		for k := range local.nodes {
			ms.nodes[k] = struct{}{}
		}
		for b, wm := range local.wm {
			ms.wm[b] = wm
		}
		ms.blobs += local.blobs
		ms.versions += local.versions
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
	pinned := make([]pinKey, 0, len(m.pins))
	for k := range m.pins {
		pinned = append(pinned, k)
	}
	m.mu.Unlock()
	for _, blob := range rawDead {
		if _, ok := ms.deferred[blob]; !ok {
			ms.dead = append(ms.dead, blob)
		}
	}
	// Pinned versions of live BLOBs are marked even when retention has
	// already retired them (a reader may have pinned between the
	// retention pass's pin check and the retire): version metadata is
	// gone but the tree nodes survive retirement, so the walk still
	// resolves — and marking their node keys keeps the node sweep from
	// dropping them while the pin lasts. Pinned versions of deleted
	// BLOBs are covered by the deferred snapshots above.
	for _, k := range pinned {
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
		prune := func(nk blobmeta.NodeKey) bool {
			_, seen := ms.nodes[nk]
			return seen
		}
		err = tree.WalkNodes(k.version, prune, func(nk blobmeta.NodeKey, n blobmeta.Node) error {
			ms.nodes[nk] = struct{}{}
			if n.Leaf && !n.Desc.ID.IsZero() {
				ms.chunks[n.Desc.ID] = true
			}
			return nil
		})
		if err != nil {
			// Fail safe, exactly like the live-blob walk: an unmarked
			// pinned version would let the purge truncate an in-flight
			// stream.
			return nil, fmt.Errorf("gc: mark pinned blob %d v%d: %w", k.blob, k.version, err)
		}
	}
	return ms, nil
}

// Mark runs the mark phase alone — no epoch advance, no reclamation —
// and reports its coverage: how many BLOBs and versions were walked and
// how many distinct chunks and tree nodes they reach. Diagnostics and
// benchmarking; safe to run concurrently with sweeps and foreground
// traffic.
func (m *Manager) Mark(ctx context.Context) (MarkReport, error) {
	ms, err := m.mark(ctx)
	if err != nil {
		return MarkReport{}, err
	}
	return MarkReport{
		Blobs:    ms.blobs,
		Versions: ms.versions,
		Chunks:   len(ms.chunks),
		Nodes:    len(ms.nodes),
	}, nil
}
