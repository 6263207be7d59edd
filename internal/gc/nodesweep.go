// The metadata-node sweep: drop tree nodes reachable only from retired
// or deleted versions.
package gc

import (
	"context"
	"fmt"

	"blobseer/internal/blobmeta"
)

// nodeSweep is the metadata sweep's share of a pass.
type nodeSweep struct {
	scanned, live, kept, swept int
	err                        error
}

// sweepNodes drops metadata-tree nodes reachable only from retired or
// deleted versions. A node is released when no retained or pinned walk
// visited it this pass AND its creating version cannot still be in
// flight: either its BLOB is in the pass's dead set (deleted, no pins),
// or the BLOB is live and the node's version is at or below the BLOB's
// mark-time watermark — published version numbers are handed out
// contiguously, so a publication racing this pass only ever creates
// node keys above the watermark. Everything else (deferred BLOBs' nodes,
// in-flight publications, BLOBs created after the mark snapshot) is
// kept for a later pass. Dead BLOBs whose nodes all deleted cleanly are
// forgotten in the version manager, ending their bookkeeping.
func (m *Manager) sweepNodes(ctx context.Context, ms *markSet, dryRun bool) nodeSweep {
	var res nodeSweep
	ns, ok := m.vm.MetaStore().(blobmeta.NodeStore)
	if !ok {
		return res
	}
	// A store whose enumeration may be partial (a ring with shards that
	// cannot list nodes) still gets its visible dead nodes deleted, but
	// no BLOB may be forgotten on the strength of an incomplete scan —
	// the invisible nodes would fall out of every future classification
	// set and leak forever. The BLOB stays in DeletedBlobs and the next
	// complete enumeration finishes the job.
	complete := true
	if pc, okc := ns.(interface{ NodesComplete() bool }); okc {
		complete = pc.NodesComplete()
	}
	dead := make(map[uint64]bool, len(ms.dead))
	clean := make(map[uint64]bool, len(ms.dead))
	for _, b := range ms.dead {
		dead[b] = true
		clean[b] = true
	}
	// Page the key space instead of snapshotting it: the sweep holds at
	// most one page of keys at a time, however many nodes the store
	// holds. Nodes this sweep deletes are behind the cursor, so paging
	// never skips or revisits a key.
	var after blobmeta.NodeKey
	var page []blobmeta.NodeKey
	more := true
	for more {
		page, more = ns.ListNodes(after, m.pageSize)
		if len(page) == 0 {
			break
		}
		after = page[len(page)-1]
		for _, k := range page {
			if err := ctx.Err(); err != nil {
				res.err = err
				return res
			}
			res.scanned++
			if _, live := ms.nodes[k]; live {
				// A BLOB deleted between its mark walk and the dead-set
				// read has live-marked nodes AND sits in the dead set.
				// Keeping the nodes is right (one-pass leak, reclaimed
				// next pass, never over-freed) — but the BLOB must then
				// NOT be forgotten this pass, or those nodes fall out of
				// every future classification set and leak forever.
				if dead[k.Blob] {
					clean[k.Blob] = false
				}
				res.live++
				continue
			}
			if _, def := ms.deferred[k.Blob]; def {
				res.kept++
				continue
			}
			wm, isLive := ms.wm[k.Blob]
			switch {
			case dead[k.Blob], isLive && k.Version <= wm:
				if dryRun {
					res.swept++
					continue
				}
				if err := ns.Delete(k); err != nil {
					res.kept++
					clean[k.Blob] = false
					if res.err == nil {
						res.err = fmt.Errorf("gc: delete node %v: %w", k, err)
					}
					continue
				}
				res.swept++
			default:
				res.kept++
			}
		}
	}
	if !dryRun && complete {
		for _, b := range ms.dead {
			if clean[b] {
				// Forget is idempotent metadata cleanup; a failure means
				// the tombstone survives to the next pass, which retries.
				_ = m.vm.Forget(b) //gcfailsafe:allow failure keeps the tombstone, and the next pass retries the forget
			}
		}
	}
	return res
}
