// Package introspect implements the paper's introspection layer: the
// Introspector aggregates the events the monitoring layer forwards into
// the higher-level state that the self-* components consume — provider
// storage space and load, BLOB access patterns, and system-wide
// aggregates. StorageServer and its BurstCache model the layer's
// cache-fronted series store, which the burst-cache ablation measures.
package introspect

import (
	"sort"
	"sync"
	"time"

	"blobseer/internal/instrument"
	"blobseer/internal/metrics"
)

// BurstCache is the bounded write-behind buffer that sits in front of
// each storage server so it can cope with bursts of monitoring data when
// the system is under heavy load. Overflowing events are dropped and
// counted (monitoring data is lossy by design; the paper's cache bounds
// memory, not loss).
type BurstCache struct {
	mu      sync.Mutex
	cap     int
	buf     []instrument.Event
	dropped int64
}

// NewBurstCache returns a cache bounded to capacity events (≤0 = 8192).
func NewBurstCache(capacity int) *BurstCache {
	if capacity <= 0 {
		capacity = 8192
	}
	return &BurstCache{cap: capacity}
}

// Add buffers events, returning how many were accepted.
func (c *BurstCache) Add(evs []instrument.Event) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	room := c.cap - len(c.buf)
	if room <= 0 {
		c.dropped += int64(len(evs))
		return 0
	}
	n := len(evs)
	if n > room {
		c.dropped += int64(n - room)
		n = room
	}
	c.buf = append(c.buf, evs[:n]...)
	return n
}

// Drain removes and returns all buffered events.
func (c *BurstCache) Drain() []instrument.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.buf
	c.buf = nil
	return out
}

// Len returns the number of buffered events.
func (c *BurstCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// Dropped returns the number of events lost to overflow.
func (c *BurstCache) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// StorageServer is one introspection storage server: a cache-fronted
// store of parameter time series keyed by node/op. A series holds each
// event's sample value, or its byte count when it carries no sample.
type StorageServer struct {
	id    string
	cache *BurstCache

	mu     sync.Mutex
	series map[string]*metrics.TimeSeries
	bound  int
}

// NewStorageServer returns a server whose cache holds cacheCap events
// and whose series retain up to seriesCap points each.
func NewStorageServer(id string, cacheCap, seriesCap int) *StorageServer {
	return &StorageServer{
		id:     id,
		cache:  NewBurstCache(cacheCap),
		series: make(map[string]*metrics.TimeSeries),
		bound:  seriesCap,
	}
}

// ID returns the server identity.
func (s *StorageServer) ID() string { return s.id }

// Consume implements monitor.Subscriber: events land in the burst cache.
func (s *StorageServer) Consume(evs []instrument.Event) { s.cache.Add(evs) }

// Flush drains the cache into the persistent series (called periodically;
// the flush cadence is the knob the burst-cache ablation sweeps).
func (s *StorageServer) Flush() int {
	evs := s.cache.Drain()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ev := range evs {
		key := ev.Node + "/" + string(ev.Op)
		ts, ok := s.series[key]
		if !ok {
			ts = metrics.NewTimeSeries(s.bound)
			s.series[key] = ts
		}
		v := ev.Value
		if v == 0 {
			v = float64(ev.Bytes)
		}
		ts.Add(ev.Time, v)
	}
	return len(evs)
}

// Series returns the stored series for node/op, or nil.
func (s *StorageServer) Series(node string, op instrument.Op) *metrics.TimeSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[node+"/"+string(op)]
}

// ParamCount returns the number of stored series.
func (s *StorageServer) ParamCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.series)
}

// Cache exposes the server's burst cache (tests, ablations).
func (s *StorageServer) Cache() *BurstCache { return s.cache }

// AccessStats aggregates the access pattern of one BLOB.
type AccessStats struct {
	Blob         uint64
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	LastAccess   time.Time
	Users        map[string]int64 // ops per user
}

func (a *AccessStats) clone() AccessStats {
	out := *a
	out.Users = make(map[string]int64, len(a.Users))
	for k, v := range a.Users {
		out.Users[k] = v
	}
	return out
}

// ProviderState is the introspection view of one provider.
type ProviderState struct {
	Node      string
	Space     float64 // latest disk_space sample (bytes)
	CPULoad   float64 // EWMA
	ActiveAvg float64 // EWMA of concurrent transfers
	LastSeen  time.Time
}

// Introspector is the query front of the introspection layer. It
// subscribes to the monitoring mesh and maintains the aggregates that the
// visualization tool and the self-* engines read.
type Introspector struct {
	mu        sync.Mutex
	providers map[string]*providerAgg
	blobs     map[uint64]*AccessStats
	loadHL    time.Duration
}

type providerAgg struct {
	space    float64
	cpu      *metrics.EWMA
	active   *metrics.EWMA
	lastSeen time.Time
}

// NewIntrospector returns an empty introspector. loadHalfLife tunes how
// fast load signals decay (default 30 s).
func NewIntrospector(loadHalfLife time.Duration) *Introspector {
	if loadHalfLife <= 0 {
		loadHalfLife = 30 * time.Second
	}
	return &Introspector{
		providers: make(map[string]*providerAgg),
		blobs:     make(map[uint64]*AccessStats),
		loadHL:    loadHalfLife,
	}
}

// Consume implements monitor.Subscriber. Failed events are skipped.
// Successful read, write and append events — only clients emit those
// operations — update the access stats of the BLOB they name.
func (in *Introspector) Consume(evs []instrument.Event) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, ev := range evs {
		if !ev.OK() {
			continue
		}
		switch ev.Op {
		case instrument.OpDiskSpace:
			in.prov(ev.Node).space = ev.Value
			in.prov(ev.Node).lastSeen = ev.Time
		case instrument.OpCPULoad:
			in.prov(ev.Node).cpu.Observe(ev.Time, ev.Value)
			in.prov(ev.Node).lastSeen = ev.Time
		case instrument.OpActiveConn:
			in.prov(ev.Node).active.Observe(ev.Time, ev.Value)
			in.prov(ev.Node).lastSeen = ev.Time
		case instrument.OpRead:
			st := in.access(ev)
			st.Reads++
			st.BytesRead += ev.Bytes
		case instrument.OpWrite, instrument.OpAppend:
			st := in.access(ev)
			st.Writes++
			st.BytesWritten += ev.Bytes
		}
	}
}

// access returns the stats of the event's BLOB with the access counted
// against its time and user. Callers hold in.mu.
func (in *Introspector) access(ev instrument.Event) *AccessStats {
	st, ok := in.blobs[ev.Blob]
	if !ok {
		st = &AccessStats{Blob: ev.Blob, Users: make(map[string]int64)}
		in.blobs[ev.Blob] = st
	}
	st.LastAccess = ev.Time
	if ev.User != "" {
		st.Users[ev.User]++
	}
	return st
}

func (in *Introspector) prov(node string) *providerAgg {
	p, ok := in.providers[node]
	if !ok {
		p = &providerAgg{cpu: metrics.NewEWMA(in.loadHL), active: metrics.NewEWMA(in.loadHL)}
		in.providers[node] = p
	}
	return p
}

// Provider returns the introspection state of one provider.
func (in *Introspector) Provider(node string) (ProviderState, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	p, ok := in.providers[node]
	if !ok {
		return ProviderState{}, false
	}
	return ProviderState{
		Node: node, Space: p.space, CPULoad: p.cpu.Value(),
		ActiveAvg: p.active.Value(), LastSeen: p.lastSeen,
	}, true
}

// Providers returns all provider states sorted by node.
func (in *Introspector) Providers() []ProviderState {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]ProviderState, 0, len(in.providers))
	for node, p := range in.providers {
		out = append(out, ProviderState{
			Node: node, Space: p.space, CPULoad: p.cpu.Value(),
			ActiveAvg: p.active.Value(), LastSeen: p.lastSeen,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// SystemStorage sums the latest disk-space samples (total stored bytes).
func (in *Introspector) SystemStorage() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var sum float64
	for _, p := range in.providers {
		sum += p.space
	}
	return sum
}

// MeanLoad returns the mean EWMA of concurrent transfers across providers
// — the elasticity controller's input signal.
func (in *Introspector) MeanLoad() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.providers) == 0 {
		return 0
	}
	var sum float64
	for _, p := range in.providers {
		sum += p.active.Value()
	}
	return sum / float64(len(in.providers))
}

// Blob returns the access stats of one BLOB.
func (in *Introspector) Blob(blob uint64) (AccessStats, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.blobs[blob]
	if !ok {
		return AccessStats{}, false
	}
	return st.clone(), true
}

// HotBlobs returns up to k BLOBs (every BLOB when k ≤ 0) by total
// access count, hottest first — the replication manager's signal for
// raising replication degrees.
func (in *Introspector) HotBlobs(k int) []AccessStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	all := make([]*AccessStats, 0, len(in.blobs))
	for _, st := range in.blobs {
		all = append(all, st)
	}
	sort.Slice(all, func(i, j int) bool {
		ai, aj := all[i].Reads+all[i].Writes, all[j].Reads+all[j].Writes
		if ai != aj {
			return ai > aj
		}
		return all[i].Blob < all[j].Blob
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	out := make([]AccessStats, len(all))
	for i, st := range all {
		out[i] = st.clone()
	}
	return out
}

// ColdBlobs returns BLOBs whose last access is before the cutoff — the
// removal strategies' candidate set.
func (in *Introspector) ColdBlobs(cutoff time.Time) []AccessStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []AccessStats
	for _, st := range in.blobs {
		if st.LastAccess.Before(cutoff) {
			out = append(out, st.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Blob < out[j].Blob })
	return out
}
