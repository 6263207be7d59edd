// Package monitor implements the paper's monitoring layer: a
// MonALISA-like distributed monitoring system. Instrumented nodes attach
// an Agent that batches their events; a full batch, or a Flush, hands it
// to the Subscribers of the agent's Mesh (the introspection layer).
package monitor

import (
	"sync"

	"blobseer/internal/instrument"
)

// Subscriber consumes batches of monitored events (the introspector, the
// user-activity history, …). A batch is shared by every subscriber and
// must not be modified.
type Subscriber interface {
	Consume(events []instrument.Event)
}

// SubscriberFunc adapts a function to Subscriber.
type SubscriberFunc func([]instrument.Event)

// Consume implements Subscriber.
func (f SubscriberFunc) Consume(evs []instrument.Event) { f(evs) }

// Agent batches the events of one instrumented node and hands them to its
// mesh's subscribers. It implements instrument.Emitter, so it plugs
// directly under the instrumentation layer. Batches flush when they reach
// batchSize; callers (or a timer/simulator) call Flush for time-based
// flushing.
type Agent struct {
	node  string
	mesh  *Mesh
	batch int

	mu      sync.Mutex
	pending []instrument.Event
}

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
	a.mu.Unlock()
	if len(batch) > 0 {
		a.mesh.deliver(batch)
	}
}

// Mesh is a deployment's monitoring layer: the agents it has handed out
// and the subscribers every agent's batches fan out to.
type Mesh struct {
	mu     sync.Mutex
	subs   []Subscriber
	agents []*Agent
}

// NewMesh returns a mesh with no agents and no subscribers.
func NewMesh() *Mesh { return &Mesh{} }

// NewAgent returns a new agent for node, flushing every batchSize events
// (≤0 = 64).
func (m *Mesh) NewAgent(node string, batchSize int) *Agent {
	if batchSize <= 0 {
		batchSize = 64
	}
	a := &Agent{node: node, mesh: m, batch: batchSize}
	m.mu.Lock()
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

// Subscribe adds a consumer of every batch any agent flushes from now on.
func (m *Mesh) Subscribe(sub Subscriber) {
	m.mu.Lock()
	m.subs = append(m.subs, sub)
	m.mu.Unlock()
}

func (m *Mesh) deliver(batch []instrument.Event) {
	m.mu.Lock()
	subs := m.subs
	m.mu.Unlock()
	for _, sub := range subs {
		sub.Consume(batch)
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
