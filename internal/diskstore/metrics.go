package diskstore

import (
	"time"

	"blobseer/internal/metrics"
)

// storeMetrics holds the disk store's pre-resolved metric handles. A nil
// *storeMetrics (no Options.Metrics registry) disables instrumentation
// entirely — the data path then pays no clock reads.
type storeMetrics struct {
	appendDur  *metrics.Histogram // Put (log append + index update)
	readDur    *metrics.Histogram // GetAppend (index lookup + pread)
	compactDur *metrics.Histogram // CompactOnce scan + rewrites
	recovery   *metrics.Gauge     // Open replay duration, seconds
	segments   *metrics.Gauge     // live segment files
	putBytes   *metrics.Counter   // payload bytes appended by Put
	relocated  *metrics.Counter   // payload bytes rewritten by compaction
}

func newStoreMetrics(reg *metrics.Registry) *storeMetrics {
	if reg == nil {
		return nil
	}
	return &storeMetrics{
		appendDur: reg.Histogram("blobseer_disk_append_seconds",
			"Log-structured store append (Put) latency.", metrics.DurationBuckets).With(),
		readDur: reg.Histogram("blobseer_disk_read_seconds",
			"Log-structured store chunk read latency.", metrics.DurationBuckets).With(),
		compactDur: reg.Histogram("blobseer_disk_compaction_seconds",
			"Segment compaction pass latency (CompactOnce).", metrics.DurationBuckets).With(),
		recovery: reg.Gauge("blobseer_disk_recovery_seconds",
			"Duration of the last segment replay on Open.").With(),
		segments: reg.Gauge("blobseer_disk_segments",
			"Live segment files on disk.").With(),
		putBytes: reg.Counter("blobseer_disk_put_bytes_total",
			"Chunk payload bytes appended by Put (a re-put of a present chunk appends none).").With(),
		relocated: reg.Counter("blobseer_disk_compaction_relocated_bytes_total",
			"Live chunk payload bytes compaction rewrote at the log head; over put bytes, the store's write amplification.").With(),
	}
}

// since books the elapsed time since t0 into h. Callers guard the
// m == nil (uninstrumented) case before reading any field off m.
func (m *storeMetrics) since(h *metrics.Histogram, t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}
