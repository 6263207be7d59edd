package gc

import "blobseer/internal/metrics"

// WithMetrics publishes the manager's gauges, counters and phase-duration
// histograms into reg, replacing the standalone instances New allocated.
// The lifecycle series are:
//
//	blobseer_gc_pinned                    gauge    outstanding reader pins
//	blobseer_gc_swept_chunks_total        counter  chunks reclaimed by sweeps
//	blobseer_gc_swept_bytes_total         counter  payload bytes reclaimed by sweeps
//	blobseer_gc_swept_nodes_total         counter  metadata-tree nodes reclaimed
//	blobseer_gc_retired_versions_total    counter  versions retired by retention
//	blobseer_gc_mark_blobs_total{result=...}  counter  BLOBs marked: walked | reused (from the per-BLOB cache)
//	blobseer_gc_mark_node_reads_total     counter  tree nodes read by mark walks
//	blobseer_gc_phase_seconds{phase=...}  hist     mark | sweep | node_sweep | retention
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
		m.sweptChunks = reg.Counter("blobseer_gc_swept_chunks_total",
			"Chunks reclaimed by mark-and-sweep passes.").With()
		m.sweptBytes = reg.Counter("blobseer_gc_swept_bytes_total",
			"Payload bytes reclaimed by mark-and-sweep passes.").With()
		m.sweptNodes = reg.Counter("blobseer_gc_swept_nodes_total",
			"Metadata-tree nodes reclaimed by mark-and-sweep passes.").With()
		m.retiredVers = reg.Counter("blobseer_gc_retired_versions_total",
			"Versions retired by retention enforcement.").With()
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
	}
}
