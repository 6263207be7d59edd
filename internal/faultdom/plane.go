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

	// BreakerThreshold consecutive transient failures open a provider's
	// circuit (default 5); BreakerCooldown later a single probe is let
	// through (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// SuspectAfter / DeadAfter consecutive transient failures move a
	// provider's health verdict (defaults 3 and 6; a DeadAfter not above
	// SuspectAfter becomes twice it). Dead providers are excluded from
	// placement and handed to self-optimization to heal.
	SuspectAfter int
	DeadAfter    int

	// Clock supplies time for breaker cooldowns (default time.Now).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// planeMetrics is the Plane's slice of the PR 8 registry. All families
// are resolved eagerly so they appear in /metrics (and the CI smoke
// greps) before the first fault.
type planeMetrics struct {
	retries      *metrics.CounterVec // blobseer_rpc_retries_total{op}
	breakerState *metrics.GaugeVec   // blobseer_breaker_state{provider}
	breakerTrans *metrics.CounterVec // blobseer_breaker_transitions_total{to}
	healthTrans  *metrics.CounterVec // blobseer_health_transitions_total{to}
}

func newPlaneMetrics(reg *metrics.Registry) *planeMetrics {
	if reg == nil {
		return nil
	}
	m := &planeMetrics{
		retries: reg.Counter("blobseer_rpc_retries_total",
			"Data-path calls re-attempted after a transient failure, by operation.", "op"),
		breakerState: reg.Gauge("blobseer_breaker_state",
			"Per-provider circuit breaker position (0 closed, 1 half-open, 2 open).", "provider"),
		breakerTrans: reg.Counter("blobseer_breaker_transitions_total",
			"Circuit breaker state changes, by destination state.", "to"),
		healthTrans: reg.Counter("blobseer_health_transitions_total",
			"Provider health verdict changes, by destination verdict.", "to"),
	}
	for _, op := range []string{"store", "fetch", "lease", "release", "lookup", "ping"} {
		m.retries.With(op)
	}
	for _, s := range []State{Closed, HalfOpen, Open} {
		m.breakerTrans.With(s.String())
	}
	for _, h := range []Health{Alive, Suspect, Dead} {
		m.healthTrans.With(h.String())
	}
	return m
}

func (m *planeMetrics) retry(op string) {
	if m != nil {
		m.retries.With(op).Inc()
	}
}

// Plane assembles the fault-tolerance pieces around a provider fleet:
// one health record per provider (its circuit and its liveness verdict,
// both driven by one failure streak), a retry policy, and per-attempt
// deadlines. core.Cluster creates one and threads it through placement
// (skip unhealthy), the read path (order healthy first), the lookup
// path (guard every conn) and the control-plane tick (active pings +
// heal triggers).
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
		p.m.breakerState.With(id).Set(float64(h.circuit))
	}
}

// Forget drops a decommissioned provider's record.
func (p *Plane) Forget(id string) {
	p.mu.Lock()
	delete(p.peers, id)
	p.mu.Unlock()
}

// State returns the provider's circuit position (Closed when
// untracked). An elapsed cooldown is not applied here: Open reads Open
// until a call probes.
func (p *Plane) State(id string) State { return p.get(id).circuit }

// Health returns the provider's liveness verdict (Alive when
// untracked).
func (p *Plane) Health(id string) Health { return p.get(id).verdict }

// Healthy reports whether placement should offer the provider new
// allocations and reads should try it first: circuit not rejecting and
// verdict not Dead.
func (p *Plane) Healthy(id string) bool {
	h := p.get(id)
	return !p.rejecting(h) && h.verdict != Dead
}

// FastFail returns a BreakerOpenError when a call to the provider
// would be rejected without reaching the wire, nil otherwise. Lookup
// uses it to fail over before dialing.
func (p *Plane) FastFail(id string) error {
	if p.rejecting(p.get(id)) {
		return &BreakerOpenError{Provider: id}
	}
	return nil
}

// Wrap guards a provider conn: every call gets breaker admission, a
// per-attempt deadline, transient-failure retries, and its outcome fed
// to the provider's health record.
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
	p.observe(id, err)
	if err != nil && Classify(err) == Permanent {
		return nil
	}
	return err
}
