package provider

import (
	"time"

	"blobseer/internal/metrics"
)

// provMetrics holds the provider's pre-resolved metric handles. The
// latency histograms are shared across the process's providers (the
// registry get-or-creates by family and label values), so they read as
// pool-wide distributions; the used/chunks gauges carry a provider
// label because each provider owns its value, and are set by
// ReportPhysical, not per operation. A nil *provMetrics disables
// instrumentation.
type provMetrics struct {
	storeOK  *metrics.Histogram
	storeErr *metrics.Histogram
	fetchOK  *metrics.Histogram
	fetchErr *metrics.Histogram
	used     *metrics.Gauge
	chunks   *metrics.Gauge
}

func newProvMetrics(reg *metrics.Registry, id string) *provMetrics {
	store := reg.Histogram("blobseer_provider_store_seconds",
		"Provider chunk store latency by outcome.", metrics.DurationBuckets, "outcome")
	fetch := reg.Histogram("blobseer_provider_fetch_seconds",
		"Provider chunk fetch latency by outcome.", metrics.DurationBuckets, "outcome")
	return &provMetrics{
		storeOK:  store.With("ok"),
		storeErr: store.With("error"),
		fetchOK:  fetch.With("ok"),
		fetchErr: fetch.With("error"),
		used: reg.Gauge("blobseer_provider_used_bytes",
			"Stored payload bytes per provider.", "provider").With(id),
		chunks: reg.Gauge("blobseer_provider_chunks",
			"Distinct chunks per provider.", "provider").With(id),
	}
}

// WithMetrics instruments the provider's Store/Fetch path into reg.
// A nil registry leaves the provider uninstrumented.
func WithMetrics(reg *metrics.Registry) Option {
	return func(p *Provider) {
		if reg != nil {
			p.m = newProvMetrics(reg, p.id)
		}
	}
}

func (m *provMetrics) observe(ok, bad *metrics.Histogram, d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		bad.Observe(d.Seconds())
		return
	}
	ok.Observe(d.Seconds())
}
