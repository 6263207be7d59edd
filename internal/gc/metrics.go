package gc

import "blobseer/internal/metrics"

// WithMetrics publishes the manager's gauges, counters and phase-duration
// histograms into reg, replacing the standalone instances New allocated.
// The lifecycle series are:
//
//	blobseer_gc_pinned                    gauge    outstanding reader pins
//	blobseer_gc_deferred_blobs            gauge    deleted BLOBs queued behind pins
//	blobseer_gc_swept_chunks_total        counter  chunks reclaimed by sweeps
//	blobseer_gc_swept_bytes_total         counter  payload bytes reclaimed by sweeps
//	blobseer_gc_swept_nodes_total         counter  metadata-tree nodes reclaimed
//	blobseer_gc_reclaimed_refs_total      counter  fast-path refcount decrements
//	blobseer_gc_retired_versions_total    counter  versions retired by retention
//	blobseer_gc_leases_active             gauge    writer leases currently registered
//	blobseer_gc_leases_reaped_total       counter  expired lease records reaped by sweeps
//	blobseer_gc_mark_blobs_total{result=...}  counter  BLOBs marked: walked | reused (from the per-BLOB cache)
//	blobseer_gc_mark_node_reads_total     counter  tree nodes read by mark walks
//	blobseer_gc_phase_seconds{phase=...}  hist     mark | sweep | node_sweep | retention
//	blobseer_gc_pin_drain_seconds         hist     deferred-reclaim latency on last-pin drain
//
// A nil registry leaves the standalone instances in place (Stats keeps
// working, nothing is exported).
func WithMetrics(reg *metrics.Registry) Option {
	return func(m *Manager) {
		if reg == nil {
			return
		}
		m.pinned = reg.Gauge("blobseer_gc_pinned",
			"Outstanding reader pins on (blob, version) pairs.").With()
		m.deferredBlobs = reg.Gauge("blobseer_gc_deferred_blobs",
			"Deleted BLOBs whose chunk reclaim is queued behind reader pins.").With()
		m.sweptChunks = reg.Counter("blobseer_gc_swept_chunks_total",
			"Chunks reclaimed by mark-and-sweep passes.").With()
		m.sweptBytes = reg.Counter("blobseer_gc_swept_bytes_total",
			"Payload bytes reclaimed by mark-and-sweep passes.").With()
		m.sweptNodes = reg.Counter("blobseer_gc_swept_nodes_total",
			"Metadata-tree nodes reclaimed by mark-and-sweep passes.").With()
		m.reclaimedRefs = reg.Counter("blobseer_gc_reclaimed_refs_total",
			"Refcount decrements issued by the deletion fast path.").With()
		m.retiredVers = reg.Counter("blobseer_gc_retired_versions_total",
			"Versions retired by retention enforcement.").With()
		m.leasesActive = reg.Gauge("blobseer_gc_leases_active",
			"Writer leases currently registered with the lifecycle manager.").With()
		m.leasesReaped = reg.Counter("blobseer_gc_leases_reaped_total",
			"Expired writer-lease records reaped by sweep passes.").With()
		marked := reg.Counter("blobseer_gc_mark_blobs_total",
			"BLOBs marked by mark phases, by whether the tree was walked or the cached mark reused.", "result")
		m.markWalked = marked.With("walked")
		m.markReused = marked.With("reused")
		m.markNodeReads = reg.Counter("blobseer_gc_mark_node_reads_total",
			"Metadata-tree nodes read by mark walks.").With()
		phase := reg.Histogram("blobseer_gc_phase_seconds",
			"GC pass phase duration by phase.", metrics.DurationBuckets, "phase")
		m.phaseMark = phase.With("mark")
		m.phaseSweep = phase.With("sweep")
		m.phaseNodeSweep = phase.With("node_sweep")
		m.phaseRetention = phase.With("retention")
		m.pinDrain = reg.Histogram("blobseer_gc_pin_drain_seconds",
			"Deferred-reclaim latency when a deleted BLOB's last pin drains.",
			metrics.DurationBuckets).With()
	}
}
