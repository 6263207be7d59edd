// The metadata-node sweep: drop tree nodes reachable only from retired
// or deleted versions, scanning only the BLOBs the pass walked or found
// dead.
package gc

import (
	"context"
	"fmt"
	"slices"

	"blobseer/internal/blobmeta"
)

// nodeSweep is the metadata sweep's share of a pass.
type nodeSweep struct {
	scanned, live, kept, swept int
	err                        error
}

// scanPageMin is the page size a node scan starts with after every seek:
// a changed BLOB among unchanged ones is a few dozen keys (one root path
// per version), and whatever the page holds beyond them is discarded. A
// scan that keeps finding only keys it wants doubles the page up to
// pageSize, so the first pass — every BLOB — pages like a full
// enumeration.
const scanPageMin = 64

// scanNodes feeds visit, in key order, the stored node keys of the given
// BLOBs (ascending IDs). It pages forward through ListNodes' order —
// NodeKey{Blob: b} sorts before every key of b, version 0 being
// reserved — and seeks over every BLOB it was not asked for. Keys visit
// deletes are behind the cursor, so paging never skips or revisits one.
func scanNodes(ns blobmeta.Store, blobs []uint64, visit func(blobmeta.NodeKey) error) error {
	if len(blobs) == 0 {
		return nil
	}
	limit := scanPageMin
	after := blobmeta.NodeKey{Blob: blobs[0]}
	for {
		page, more := ns.ListNodes(after, limit)
		sought := false
		for _, k := range page {
			for blobs[0] < k.Blob {
				if blobs = blobs[1:]; len(blobs) == 0 {
					return nil
				}
			}
			if k.Blob != blobs[0] {
				after, sought = blobmeta.NodeKey{Blob: blobs[0]}, true
				break
			}
			if err := visit(k); err != nil {
				return err
			}
			after = k
		}
		switch {
		case sought:
			limit = scanPageMin
		case !more:
			return nil
		default:
			limit = min(2*limit, pageSize)
		}
	}
}

// sweepNodes drops metadata-tree nodes reachable only from retired or
// deleted versions. It scans the BLOBs the mark phase walked this pass
// plus the dead set, nothing else: a BLOB marked from the cache was
// fully classified by the pass that settled it, and nothing about it
// has changed since. A scanned node is released when no retained-version
// walk visited it this pass AND its creating version cannot
// still be in flight: either its BLOB is in the pass's dead set
// (deleted, no holds), or the BLOB is live and the node's version is at
// or below the BLOB's mark-time watermark — published version numbers
// are handed out contiguously, so a publication racing this pass only
// ever creates node keys above the watermark. Everything else (held
// deleted BLOBs' nodes, in-flight publications) is kept; the publication that
// lands changes the BLOB's version list, which brings it back into a
// later pass's scan. Dead BLOBs whose nodes all deleted cleanly are
// forgotten in the version manager, ending their bookkeeping; walked
// BLOBs whose scan deleted cleanly are settled.
func (m *Manager) sweepNodes(ctx context.Context, ms *markSet, dryRun bool) nodeSweep {
	var res nodeSweep
	ns := m.vm.MetaStore()
	dead := make(map[uint64]bool, len(ms.dead))
	scan := make([]uint64, 0, len(ms.walked)+len(ms.dead))
	for _, b := range ms.dead {
		dead[b] = true
		scan = append(scan, b)
	}
	for b := range ms.walked {
		if !dead[b] {
			scan = append(scan, b)
		}
	}
	slices.Sort(scan)

	// unclean holds the BLOBs that must not be forgotten or settled on
	// the strength of this scan.
	unclean := make(map[uint64]bool)
	var w *blobWalk // the walk of the BLOB the scan is in
	cur := ^uint64(0)
	scanErr := scanNodes(ns, scan, func(k blobmeta.NodeKey) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if k.Blob != cur {
			cur, w = k.Blob, ms.walked[k.Blob]
		}
		res.scanned++
		if w != nil {
			if _, live := w.nodes[k]; live {
				// A BLOB deleted between its mark walk and the dead-set
				// read has live-marked nodes AND sits in the dead set.
				// Keeping the nodes is right (one-pass leak, reclaimed
				// next pass, never over-freed) — but the BLOB must then
				// NOT be forgotten this pass, or those nodes fall out of
				// every future classification set and leak forever.
				if dead[k.Blob] {
					unclean[k.Blob] = true
				}
				res.live++
				return nil
			}
		}
		if _, held := ms.held[k.Blob]; held {
			res.kept++
			return nil
		}
		switch {
		case dead[k.Blob], w != nil && k.Version <= w.wm:
			if dryRun {
				res.swept++
				return nil
			}
			if err := ns.Delete(k); err != nil {
				res.kept++
				unclean[k.Blob] = true
				if res.err == nil {
					res.err = fmt.Errorf("gc: delete node %v: %w", k, err)
				}
				return nil
			}
			res.swept++
		default:
			res.kept++
		}
		return nil
	})
	if scanErr != nil {
		// The scan stopped short: nothing it did not reach may be
		// forgotten or settled, and what it did reach settles next pass.
		res.err = scanErr
		return res
	}
	if dryRun {
		return res
	}
	for _, b := range ms.dead {
		if !unclean[b] {
			// Forget is idempotent metadata cleanup; a failure means
			// the tombstone survives to the next pass, which retries.
			_ = m.vm.Forget(b) //gcfailsafe:allow failure keeps the tombstone, and the next pass retries the forget
		}
	}
	m.settle(ms, unclean)
	return res
}

// settle marks the pass's walked BLOBs as fully classified, so the next
// pass reuses their marks instead of walking and scanning them again —
// except those whose scan left a node undeleted and those a concurrent
// mark phase has re-marked since.
func (m *Manager) settle(ms *markSet, unclean map[uint64]bool) {
	m.markMu.Lock()
	defer m.markMu.Unlock()
	for b, w := range ms.walked {
		if unclean[b] || m.marks[b] != w.blobMark {
			continue
		}
		done := *w.blobMark
		done.settled = true
		m.marks[b] = &done
	}
}
