package client

import (
	"time"

	"blobseer/internal/metrics"
)

// pathMetrics holds the client's pre-resolved data-path metric handles.
// All handles are resolved once when the client is built (WithMetrics);
// per-chunk observations are lock-free with no map lookups or
// allocations. A nil *pathMetrics disables instrumentation entirely,
// including the extra clock reads.
type pathMetrics struct {
	fetchSerial   *metrics.Histogram // chunk served by the primary replica
	fetchFailover *metrics.Histogram // chunk served after ≥1 replica failed
	fetchErr      *metrics.Histogram // all replicas failed
	fetchCache    *metrics.Histogram // chunk served by the chunk cache
	storeOK       *metrics.Histogram
	storeErr      *metrics.Histogram
	quorumWait    *metrics.Histogram
	readerStall   *metrics.Histogram
	writerStall   *metrics.Histogram
	readBytes     *metrics.Counter
	writeBytes    *metrics.Counter
}

func newPathMetrics(reg *metrics.Registry) *pathMetrics {
	fetch := reg.Histogram("blobseer_client_chunk_fetch_seconds",
		"Chunk fetch latency by outcome: serial (primary replica), failover (a later replica), error (all replicas failed), cache (the chunk cache).",
		metrics.DurationBuckets, "outcome")
	store := reg.Histogram("blobseer_client_chunk_store_seconds",
		"Chunk replica fan-out latency by outcome (quorum reached or not).",
		metrics.DurationBuckets, "outcome")
	return &pathMetrics{
		fetchSerial:   fetch.With("serial"),
		fetchFailover: fetch.With("failover"),
		fetchErr:      fetch.With("error"),
		fetchCache:    fetch.With("cache"),
		storeOK:       store.With("ok"),
		storeErr:      store.With("error"),
		quorumWait: reg.Histogram("blobseer_client_quorum_wait_seconds",
			"Time from replica fan-out start until the write quorum was reached.",
			metrics.DurationBuckets).With(),
		readerStall: reg.Histogram("blobseer_client_reader_stall_seconds",
			"Time BlobReader.Read blocked waiting for a prefetched chunk (near-zero when the window hides provider latency).",
			metrics.DurationBuckets).With(),
		writerStall: reg.Histogram("blobseer_client_writer_stall_seconds",
			"Time BlobWriter blocked waiting for a background flush slot.",
			metrics.DurationBuckets).With(),
		readBytes: reg.Counter("blobseer_client_read_bytes_total",
			"Bytes served to BlobReader consumers.").With(),
		writeBytes: reg.Counter("blobseer_client_write_bytes_total",
			"Bytes accepted from BlobWriter producers.").With(),
	}
}

// WithMetrics instruments the client's data path into reg: chunk
// store/fetch latency, quorum wait, stream stall time and byte
// counters. A nil registry leaves the client uninstrumented (no clock
// reads on the hot path).
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *Client) {
		if reg != nil {
			c.m = newPathMetrics(reg)
		}
	}
}

// observe records d into h in seconds; both no-op on a nil receiver set.
func (m *pathMetrics) observe(h *metrics.Histogram, d time.Duration) {
	if m != nil {
		h.Observe(d.Seconds())
	}
}
