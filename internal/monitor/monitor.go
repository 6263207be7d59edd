// Package monitor implements the paper's monitoring layer: a
// MonALISA-like distributed monitoring system. Instrumented nodes attach
// an Agent that batches events and ships them to one of several
// monitoring Services; services convert each batch to parameter records
// (EventRecord) and forward them to Subscribers (the introspection
// layer), while keeping a recent-data farm for ad-hoc queries.
package monitor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"blobseer/internal/instrument"
	"blobseer/internal/metrics"
)

// Record is one monitored parameter sample, the unit the monitoring layer
// stores and forwards (MonALISA's Farm/Node/Parameter model).
type Record struct {
	Time    time.Time
	Service string // monitoring service that produced the record
	Node    string // originating node
	User    string // user attribution, when applicable
	Blob    uint64 // BLOB the operation touched (0 = not applicable)
	Param   string // parameter name, e.g. "write", "disk_space"
	Value   float64
}

// Subscriber consumes monitoring records (the introspector, the
// user-activity history, …).
type Subscriber interface {
	Consume(records []Record)
}

// SubscriberFunc adapts a function to Subscriber.
type SubscriberFunc func([]Record)

// Consume implements Subscriber.
func (f SubscriberFunc) Consume(rs []Record) { f(rs) }

// EventRecord converts one event to its record: the parameter is named
// after the operation ("_err" appended on failure), and the value is the
// sample value (physical parameters) or else the byte count (data ops).
func EventRecord(ev instrument.Event) Record {
	v := ev.Value
	if v == 0 && ev.Bytes != 0 {
		v = float64(ev.Bytes)
	}
	param := string(ev.Op)
	if ev.Err != "" {
		param += "_err"
	}
	return Record{
		Time: ev.Time, Node: ev.Node, User: ev.User, Blob: ev.Blob,
		Param: param, Value: v,
	}
}

// Service is one monitoring service instance.
type Service struct {
	id string

	mu      sync.Mutex
	subs    []Subscriber
	farm    map[string]*metrics.TimeSeries // key: node + "/" + param
	farmCap int
	inRecs  int64
	inEvs   int64
}

// NewService returns an empty monitoring service. farmCap bounds the
// points retained per parameter (≤0 = default).
func NewService(id string, farmCap int) *Service {
	return &Service{
		id:      id,
		farm:    make(map[string]*metrics.TimeSeries),
		farmCap: farmCap,
	}
}

// ID returns the service identity.
func (s *Service) ID() string { return s.id }

// Subscribe adds a downstream consumer of the service's records.
func (s *Service) Subscribe(sub Subscriber) {
	if sub == nil {
		return
	}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
}

// Ingest processes a batch of raw events from an agent.
func (s *Service) Ingest(events []instrument.Event) {
	if len(events) == 0 {
		return
	}
	s.mu.Lock()
	s.inEvs += int64(len(events))
	s.mu.Unlock()
	recs := make([]Record, len(events))
	for i, ev := range events {
		recs[i] = EventRecord(ev)
	}
	s.StoreRecords(recs)
}

// StoreRecords ingests already-converted records (Ingest's converted
// events, and the per-chunk parameters the simulator derives itself):
// it stamps the service on records that carry none, stores them into
// the farm and fans them out to the subscribers.
func (s *Service) StoreRecords(recs []Record) {
	if len(recs) == 0 {
		return
	}
	s.mu.Lock()
	subs := s.subs
	s.mu.Unlock()
	for i := range recs {
		if recs[i].Service == "" {
			recs[i].Service = s.id
		}
	}
	s.store(recs)
	for _, sub := range subs {
		sub.Consume(recs)
	}
}

func (s *Service) store(recs []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inRecs += int64(len(recs))
	for _, r := range recs {
		key := r.Node + "/" + r.Param
		ts, ok := s.farm[key]
		if !ok {
			ts = metrics.NewTimeSeries(s.farmCap)
			s.farm[key] = ts
		}
		ts.Add(r.Time, r.Value)
	}
}

// ParamCount returns the number of distinct (node, param) series held by
// the service — the "monitoring parameters" count reported in EXP-B.
func (s *Service) ParamCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.farm)
}

// Ingested returns (events, records) counters.
func (s *Service) Ingested() (events, records int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inEvs, s.inRecs
}

// Series returns the farm series for one node/param, or nil.
func (s *Service) Series(node, param string) *metrics.TimeSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.farm[node+"/"+param]
}

// Params lists the distinct series keys, sorted.
func (s *Service) Params() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.farm))
	for k := range s.farm {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Agent batches the events of one instrumented node and ships them to its
// monitoring service. It implements instrument.Emitter, so it plugs
// directly under the instrumentation layer. Batches flush when they reach
// batchSize; callers (or a timer/simulator) call Flush for time-based
// flushing.
type Agent struct {
	node    string
	service *Service
	batch   int

	mu      sync.Mutex
	pending []instrument.Event
	sent    int64
	flushes int64
}

// NewAgent returns an agent for node shipping to service, flushing every
// batchSize events (≤0 = 64).
func NewAgent(node string, service *Service, batchSize int) *Agent {
	if batchSize <= 0 {
		batchSize = 64
	}
	return &Agent{node: node, service: service, batch: batchSize}
}

// Node returns the instrumented node's identity.
func (a *Agent) Node() string { return a.node }

// Emit implements instrument.Emitter.
func (a *Agent) Emit(ev instrument.Event) {
	if ev.Node == "" {
		ev.Node = a.node
	}
	a.mu.Lock()
	a.pending = append(a.pending, ev)
	full := len(a.pending) >= a.batch
	a.mu.Unlock()
	if full {
		a.Flush()
	}
}

// Flush ships all pending events.
func (a *Agent) Flush() {
	a.mu.Lock()
	batch := a.pending
	a.pending = nil
	if len(batch) > 0 {
		a.sent += int64(len(batch))
		a.flushes++
	}
	a.mu.Unlock()
	if len(batch) > 0 {
		a.service.Ingest(batch)
	}
}

// Stats returns (events sent, flush count, pending).
func (a *Agent) Stats() (sent, flushes int64, pending int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sent, a.flushes, len(a.pending)
}

// Mesh is a deployment of several monitoring services with agents
// assigned round-robin, mirroring the paper's "8 monitoring services"
// setting.
type Mesh struct {
	mu       sync.Mutex
	services []*Service
	next     int
	agents   []*Agent
}

// NewMesh creates n monitoring services named svc0..svc(n-1).
func NewMesh(n, farmCap int) *Mesh {
	if n <= 0 {
		n = 1
	}
	m := &Mesh{}
	for i := 0; i < n; i++ {
		m.services = append(m.services, NewService(serviceName(i), farmCap))
	}
	return m
}

func serviceName(i int) string { return fmt.Sprintf("svc%02d", i) }

// Services returns the mesh's services.
func (m *Mesh) Services() []*Service {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Service(nil), m.services...)
}

// NewAgent assigns a new node agent to the next service round-robin.
func (m *Mesh) NewAgent(node string, batchSize int) *Agent {
	m.mu.Lock()
	svc := m.services[m.next%len(m.services)]
	m.next++
	a := NewAgent(node, svc, batchSize)
	m.agents = append(m.agents, a)
	m.mu.Unlock()
	return a
}

// Agents returns how many agents the mesh has handed out. Agents are never
// retired, so a count that grows with traffic is a leak.
func (m *Mesh) Agents() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.agents)
}

// Subscribe attaches a subscriber to every service.
func (m *Mesh) Subscribe(sub Subscriber) {
	for _, s := range m.Services() {
		s.Subscribe(sub)
	}
}

// FlushAll flushes every agent (time-based flushing hook).
func (m *Mesh) FlushAll() {
	m.mu.Lock()
	agents := append([]*Agent(nil), m.agents...)
	m.mu.Unlock()
	for _, a := range agents {
		a.Flush()
	}
}

// ParamCount sums distinct parameters across services.
func (m *Mesh) ParamCount() int {
	var n int
	for _, s := range m.Services() {
		n += s.ParamCount()
	}
	return n
}
