package faultdom

import (
	"context"
	"sync"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/metrics"
)

// Config sets the knobs of a fault-tolerance Plane. The zero value is
// usable; every field has a production default.
type Config struct {
	// CallTimeout bounds each individual attempt against a provider
	// (default 2s). The caller's context still bounds the whole
	// operation; this keeps one hung provider from eating that budget.
	CallTimeout time.Duration

	// Retry drives in-place retries of transient failures before the
	// caller falls over to another replica.
	Retry RetryPolicy

	// DeadAfter consecutive transient failures make a provider Dead
	// (default 5): placement and reads skip it, self-optimization heals
	// around it, and guarded calls to it are rejected but for one probe
	// per Cooldown (default 5s).
	DeadAfter int
	Cooldown  time.Duration

	// Clock supplies time for cooldowns (default time.Now).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// planeMetrics is the Plane's slice of the metrics registry. All families
// are resolved eagerly so they appear in /metrics (and the CI smoke
// greps) before the first fault.
type planeMetrics struct {
	retries *metrics.CounterVec // blobseer_rpc_retries_total{op}
	state   *metrics.GaugeVec   // blobseer_health_state{provider}
	trans   *metrics.CounterVec // blobseer_health_transitions_total{to}
}

func newPlaneMetrics(reg *metrics.Registry) *planeMetrics {
	if reg == nil {
		return nil
	}
	m := &planeMetrics{
		retries: reg.Counter("blobseer_rpc_retries_total",
			"Data-path calls re-attempted after a transient failure, by operation.", "op"),
		state: reg.Gauge("blobseer_health_state",
			"Per-provider health verdict (0 alive, 1 dead).", "provider"),
		trans: reg.Counter("blobseer_health_transitions_total",
			"Provider health verdict changes, by destination verdict.", "to"),
	}
	for _, op := range []string{"store", "fetch", "lease", "release", "lookup", "ping"} {
		m.retries.With(op)
	}
	for _, h := range []Health{Alive, Dead} {
		m.trans.With(h.String())
	}
	return m
}

func (m *planeMetrics) retry(op string) {
	if m != nil {
		m.retries.With(op).Inc()
	}
}

// Plane assembles the fault-tolerance pieces around a provider fleet:
// one health record per provider (alive or dead, driven by its failure
// streak), a retry policy, and per-attempt deadlines. core.Cluster
// creates one and threads it through placement (skip dead providers),
// the read path (order healthy first), the lookup path (guard every
// conn) and the control-plane tick (active pings + heal triggers).
type Plane struct {
	cfg Config
	m   *planeMetrics

	mu    sync.Mutex
	peers map[string]*health
	dead  []string // Dead verdicts pending a heal, drained by Tick
}

// NewPlane builds a Plane from cfg, registering its metric families on
// reg (nil disables metrics).
func NewPlane(cfg Config, reg *metrics.Registry) *Plane {
	return &Plane{cfg: cfg.withDefaults(), m: newPlaneMetrics(reg), peers: make(map[string]*health)}
}

// Track pre-creates the provider's record and resolves its gauge child
// so the family is visible before the first call.
func (p *Plane) Track(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.recLocked(id)
	if p.m != nil {
		p.m.state.With(id).Set(float64(h.verdict))
	}
}

// Forget drops a decommissioned provider's record.
func (p *Plane) Forget(id string) {
	p.mu.Lock()
	delete(p.peers, id)
	p.mu.Unlock()
}

// Health returns the provider's liveness verdict (Alive when
// untracked).
func (p *Plane) Health(id string) Health { return p.get(id).verdict }

// Healthy reports whether placement should offer the provider new
// allocations and reads should try it first: it is not Dead. An
// elapsed cooldown does not revive it; only contact does.
func (p *Plane) Healthy(id string) bool { return p.Health(id) == Alive }

// FastFail returns a DeadError when a call to the provider would be
// rejected without reaching the wire, nil otherwise. Lookup uses it to
// fail over before dialing.
func (p *Plane) FastFail(id string) error {
	if p.rejecting(p.get(id)) {
		return &DeadError{Provider: id}
	}
	return nil
}

// Wrap guards a provider conn: every call gets dead-provider admission,
// a per-attempt deadline, transient-failure retries, and its outcome
// fed to the provider's health record.
func (p *Plane) Wrap(id string, conn client.Conn) client.Conn {
	return &guardedConn{p: p, id: id, inner: conn}
}

// DrainDead returns the providers declared Dead since the last drain.
// The control plane triggers a replication heal for them.
func (p *Plane) DrainDead() []string {
	p.mu.Lock()
	d := p.dead
	p.dead = nil
	p.mu.Unlock()
	return d
}

// Ping actively probes one provider with a single deadline-bounded
// fetch of the zero chunk ID and feeds the outcome to its health
// record. ErrNotFound is the expected healthy answer (an application
// error proves reachability); only transport failures count against
// the provider. conn must be the raw (unguarded) conn — the probe is
// deliberately a single attempt with no retries.
func (p *Plane) Ping(ctx context.Context, id string, conn client.Conn) error {
	cctx, cancel := context.WithTimeout(ctx, p.cfg.CallTimeout)
	defer cancel()
	_, err := conn.Fetch(cctx, "health", chunk.ID{})
	p.observe(id, err, false)
	if err != nil && Classify(err) == Permanent {
		return nil
	}
	return err
}
