// Package core assembles a complete self-adaptive BlobSeer deployment:
// the five BlobSeer actors, the three-layer introspection stack, the
// security policy framework with trust management, and the
// self-configuration / self-optimization engines — the paper's whole
// system behind one constructor.
//
// A Cluster is an in-process deployment (the real plane). Examples, the
// CLI tools and the S3 gateway build on it; the large-scale experiments
// use internal/cloudsim, which reuses the same decision components over a
// discrete-event simulation of Grid'5000.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/client"
	"blobseer/internal/faultdom"
	"blobseer/internal/gc"
	"blobseer/internal/history"
	"blobseer/internal/instrument"
	"blobseer/internal/introspect"
	"blobseer/internal/metrics"
	"blobseer/internal/monitor"
	"blobseer/internal/pmanager"
	"blobseer/internal/policy"
	"blobseer/internal/provider"
	"blobseer/internal/selfconfig"
	"blobseer/internal/selfopt"
	"blobseer/internal/trust"
	"blobseer/internal/vmanager"
)

// The deployment's fixed shape: two metadata providers behind the ring,
// and every data provider in one zone with unbounded capacity.
const (
	metaProviders = 2
	zone          = "zone0"
)

// Options configures a Cluster. The zero value is usable: NewCluster
// fills defaults.
type Options struct {
	Providers    int    // data providers (default 4)
	Replicas     int    // replication degree clients write and the heal keeps (default 1)
	PolicySource string // policy DSL ("" = policy.DefaultCatalog)
	Monitoring   bool   // give every actor a mesh agent feeding Intro and Hist (default off: events are dropped)
	AgentBatch   int    // monitoring agent batch size (default 32)
	Clock        func() time.Time
	Elasticity   *selfconfig.Config // enable the elasticity controller
	// ProviderStore mints the backing chunk store for each new provider
	// (nil, or a nil return, = the in-memory MemStore). It is the seam
	// for disk-backed stores and for fault/latency injection in tests.
	ProviderStore func(id string) provider.Store
	// Metrics is the process metrics registry. When set, every actor the
	// cluster assembles — clients, providers, the GC manager, and any S3
	// gateway built over the cluster — records its data-path series there;
	// nil leaves the whole deployment uninstrumented (no overhead).
	Metrics *metrics.Registry
	// Fault configures the fault-tolerance plane (internal/faultdom),
	// which every cluster runs: every client↔provider conversation gets
	// per-attempt deadlines, retries with jittered backoff, and its
	// outcome fed to the provider's health record (alive or dead; a
	// dead provider's calls fail fast), which steers placement, read
	// ordering and self-optimization heals. nil means faultdom's
	// defaults; an unset Clock is the cluster's.
	Fault *faultdom.Config
	// WrapConn, when set, wraps every provider conn Lookup resolves —
	// inside the fault guard, so injected faults are seen (and retried,
	// counted, held against the provider) by the plane. It is the
	// chaos-test seam for the storetest conn wrappers (flaky, slow,
	// partitioned).
	WrapConn func(id string, conn client.Conn) client.Conn
}

// Cluster is a fully wired in-process deployment.
type Cluster struct {
	opts Options
	now  func() time.Time

	VM    *vmanager.Manager
	PM    *pmanager.Manager
	Mesh  *monitor.Mesh // hands every agent's batches to Intro and Hist
	Intro *introspect.Introspector
	Hist  *history.History
	Trust *trust.Manager
	Enf   *policy.Enforcer
	Eng   *policy.Engine
	Rep   *selfopt.Replicator
	Elast *selfconfig.Controller
	GC    *gc.Manager
	Fault *faultdom.Plane // guards the client data path; never nil

	mu        sync.Mutex
	providers map[string]*provider.Provider
	nextProv  int
}

// NewCluster builds and wires a deployment.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Providers <= 0 {
		opts.Providers = 4
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	if opts.Fault == nil {
		opts.Fault = &faultdom.Config{}
	}
	if opts.AgentBatch <= 0 {
		opts.AgentBatch = 32
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.PolicySource == "" {
		opts.PolicySource = policy.DefaultCatalog
	}
	policies, err := policy.Parse(opts.PolicySource)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	c := &Cluster{
		opts:      opts,
		now:       opts.Clock,
		providers: make(map[string]*provider.Provider),
	}

	// Monitoring mesh + introspection stack: every batch an agent
	// flushes goes to the introspector and the user-activity history.
	c.Mesh = monitor.NewMesh()
	c.Intro = introspect.NewIntrospector(0)
	c.Hist = history.New()
	c.Mesh.Subscribe(c.Intro)
	c.Mesh.Subscribe(c.Hist)

	// Metadata providers behind a ring.
	stores := make([]blobmeta.Store, metaProviders)
	for i := range stores {
		id := fmt.Sprintf("meta%02d", i)
		stores[i] = blobmeta.NewMemStore(id, c.AgentFor(id), c.now)
	}
	ring, err := blobmeta.NewRing(stores...)
	if err != nil {
		return nil, err
	}

	// Fault-tolerance plane. Built before the provider manager so
	// placement can consult its health verdicts.
	fcfg := *opts.Fault
	if fcfg.Clock == nil {
		fcfg.Clock = opts.Clock
	}
	c.Fault = faultdom.NewPlane(fcfg, opts.Metrics)

	// Version and provider managers.
	c.VM = vmanager.New(ring,
		vmanager.WithEmitter(c.AgentFor("vmanager")),
		vmanager.WithClock(c.now))
	c.PM = pmanager.New(
		pmanager.WithEmitter(c.AgentFor("pmanager")),
		pmanager.WithClock(c.now),
		pmanager.WithHealth(c.Fault.Healthy))

	// Security framework.
	c.Trust = trust.New(trust.WithClock(c.now))
	c.Enf = policy.NewEnforcer(
		policy.WithEmitter(c.AgentFor("security")),
		policy.WithClock(c.now))
	sink := trust.Sink{Inner: c.Enf, Trust: c.Trust}
	c.Eng = policy.NewEngine(c.Hist, policies, sink, policy.WithTrust(c.Trust))

	// Data providers.
	for i := 0; i < opts.Providers; i++ {
		if _, err := c.AddProvider(); err != nil {
			return nil, err
		}
	}

	// Self-optimization.
	c.Rep = selfopt.NewReplicator(c.VM, c.PM, pool{c}, c.Intro,
		selfopt.WithBaseDegree(opts.Replicas),
		selfopt.WithEmitter(c.AgentFor("selfopt")))

	// Storage lifecycle: every deletion routes through it, every reader
	// pins through it.
	c.GC = gc.New(c.VM, pool{c},
		gc.WithEmitter(c.AgentFor("gc")),
		gc.WithClock(c.now),
		gc.WithMetrics(opts.Metrics))

	// Self-configuration (optional).
	if opts.Elasticity != nil {
		ctl, err := selfconfig.New(*opts.Elasticity, actuator{c},
			selfconfig.WithEmitter(c.AgentFor("selfconfig")))
		if err != nil {
			return nil, err
		}
		c.Elast = ctl
	}
	return c, nil
}

// AgentFor returns the instrumentation emitter of one actor: a new
// monitoring agent for node when monitoring is on, else a Nop. Every
// actor the cluster assembles, its clients and any S3 gateway built over
// it take their emitter from here.
func (c *Cluster) AgentFor(node string) instrument.Emitter {
	if !c.opts.Monitoring {
		return instrument.Nop{}
	}
	return c.Mesh.NewAgent(node, c.opts.AgentBatch)
}

// AddProvider deploys one more data provider and returns its ID.
func (c *Cluster) AddProvider() (string, error) {
	c.mu.Lock()
	i := c.nextProv
	c.nextProv++
	id := fmt.Sprintf("provider%03d", i)
	popts := []provider.Option{
		provider.WithEmitter(c.AgentFor(id)),
		provider.WithClock(c.now),
		provider.WithMetrics(c.opts.Metrics),
	}
	if c.opts.ProviderStore != nil {
		popts = append(popts, provider.WithStore(c.opts.ProviderStore(id)))
	}
	p := provider.New(id, zone, 0, popts...)
	c.providers[id] = p
	c.mu.Unlock()
	c.Fault.Track(id)
	if err := c.PM.Register(pmanager.Info{ID: id, Zone: zone}); err != nil {
		return "", err
	}
	return id, nil
}

// RemoveProvider retires a provider (its chunks stay until re-replication
// heals the degree, as in a real decommissioning).
func (c *Cluster) RemoveProvider(id string) error {
	c.mu.Lock()
	p, ok := c.providers[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no provider %s", id)
	}
	p.Stop()
	c.Fault.Forget(id)
	return c.PM.Unregister(id)
}

// Providers lists provider IDs sorted.
func (c *Cluster) Providers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.providers))
	for id, p := range c.providers {
		if !p.Stopped() {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Provider returns a provider by ID.
func (c *Cluster) Provider(id string) (*provider.Provider, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.providers[id]
	return p, ok
}

// rawConn resolves a provider to its unguarded conn: the in-process
// provider, wrapped by the WrapConn fault-injection seam when set.
func (c *Cluster) rawConn(id string) (client.Conn, error) {
	c.mu.Lock()
	p, ok := c.providers[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no provider %s", id)
	}
	var conn client.Conn = p
	if c.opts.WrapConn != nil {
		conn = c.opts.WrapConn(id, conn)
	}
	return conn, nil
}

// Lookup implements client.Directory. A dead provider with no probe
// due fails fast here — before any wire work — so reads fail over and
// writes re-route immediately, and the returned conn carries the full
// guard (per-attempt deadlines, retries, health observation).
func (c *Cluster) Lookup(ctx context.Context, id string) (client.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conn, err := c.rawConn(id)
	if err != nil {
		return nil, err
	}
	if err := c.Fault.FastFail(id); err != nil {
		return nil, err
	}
	return c.Fault.Wrap(id, conn), nil
}

// Metrics returns the cluster's metrics registry (nil when the
// deployment is uninstrumented).
func (c *Cluster) Metrics() *metrics.Registry { return c.opts.Metrics }

// Client returns a client bound to a user identity, wired through the
// security gatekeeper and the introspection stack.
func (c *Cluster) Client(user string) *client.Client {
	return c.ClientWith(user)
}

// ClientWith returns a client like Client, with extra client options
// (a write quorum, say) applied on top of the cluster's defaults. The
// S3 gateway and benchmarks use it to tune per-front-end behavior
// without reconfiguring the whole cluster.
func (c *Cluster) ClientWith(user string, extra ...client.Option) *client.Client {
	opts := []client.Option{
		client.WithReplicas(c.opts.Replicas),
		client.WithGatekeeper(c.Enf),
		client.WithPinner(c.GC),
		client.WithEmitter(c.AgentFor("client-" + user)),
		client.WithClock(c.now),
		client.WithMetrics(c.opts.Metrics),
		client.WithHealth(c.Fault.Healthy),
	}
	return client.New(user, c.VM, c.PM, c, append(opts, extra...)...)
}

// Tick advances the control plane at the given instant: providers report
// physical parameters, agents flush (which is when the introspector sees
// client accesses), the detection engine scans, replication heals,
// elasticity reacts. Call it periodically (e.g. every few seconds of
// real or simulated time).
func (c *Cluster) Tick(now time.Time) {
	c.mu.Lock()
	provs := make([]*provider.Provider, 0, len(c.providers))
	for _, p := range c.providers {
		if !p.Stopped() {
			provs = append(provs, p)
		}
	}
	c.mu.Unlock()
	for _, p := range provs {
		st := p.Stats()
		cpu := float64(st.Active) / 16
		if cpu > 1 {
			cpu = 1
		}
		p.ReportPhysical(cpu, 0)
	}
	c.Mesh.FlushAll()
	c.Eng.Evaluate(now)
	if c.Elast != nil {
		c.Elast.Tick(now, c.Intro.MeanLoad())
	}
	// Active failure detection: ping every live provider through its
	// raw (unguarded, fault-injected) conn, in parallel so one
	// blackholed provider costs the tick a single CallTimeout, not one
	// per victim. Verdicts that crossed to Dead since the last tick then
	// trigger a replication heal around the body.
	ctx := context.Background() //ctxfirst:allow control-plane tick has no caller context; each Ping bounds itself with CallTimeout, and the heal calls in-process providers
	var wg sync.WaitGroup
	for _, p := range provs {
		id := p.ID()
		conn, err := c.rawConn(id)
		if err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.Fault.Ping(ctx, id, conn)
		}()
	}
	wg.Wait()
	if dead := c.Fault.DrainDead(); len(dead) > 0 {
		_, _ = c.Rep.Scan(ctx, now)
	}
}

// Heal runs one replication-maintenance scan. A cancelled ctx
// aborts it between BLOBs and stops in-flight repair transfers.
func (c *Cluster) Heal(ctx context.Context, now time.Time) (selfopt.RepairReport, error) {
	return c.Rep.Scan(ctx, now)
}

// pool exposes the cluster's providers to the control plane — the
// replicator and reapers (selfopt.Pool) and the lifecycle manager
// (gc.Providers) — as the unguarded in-process provider: maintenance
// traffic bypasses the client-side fault guard.
type pool struct{ c *Cluster }

func (a pool) Provider(_ context.Context, id string) (provider.API, error) {
	p, ok := a.c.Provider(id)
	if !ok {
		return nil, fmt.Errorf("core: no provider %s", id)
	}
	return p, nil
}

// IDs lists the providers a sweep covers. Only live providers are
// swept: a stopped provider keeps its chunks until it restarts (matching
// real decommissioning, where its disks are gone anyway).
func (a pool) IDs() []string { return a.c.Providers() }

func (a pool) Alive(id string) bool {
	p, ok := a.c.Provider(id)
	if !ok || p.Stopped() {
		return false
	}
	// The heal must not copy replicas onto a dead provider — that only
	// manufactures more degraded replicas.
	return a.c.Fault.Healthy(id)
}

// Pool exposes the cluster's providers as a selfopt.Pool (for reapers).
func (c *Cluster) Pool() selfopt.Pool { return pool{c} }

// GCRunner returns a background lifecycle runner (periodic retention +
// sweep) over the cluster's GC manager; run it with Run(ctx).
func (c *Cluster) GCRunner(interval time.Duration) *gc.Runner {
	return gc.NewRunner(c.GC, interval)
}

// NewReaper returns a removal-strategy reaper whose deletions route
// through the cluster's lifecycle manager, so reader pins are honoured
// and healed BLOBs reclaim exactly.
func (c *Cluster) NewReaper(strategies ...selfopt.Strategy) *selfopt.Reaper {
	return selfopt.NewReaper(c.GC, c.AgentFor("reaper"), strategies...)
}

// actuator implements selfconfig.Actuator over the cluster.
type actuator struct{ c *Cluster }

func (a actuator) PoolSize() int { return len(a.c.Providers()) }

func (a actuator) ScaleTo(n int) (int, error) {
	cur := a.c.Providers()
	switch {
	case n > len(cur):
		for i := len(cur); i < n; i++ {
			if _, err := a.c.AddProvider(); err != nil {
				return len(a.c.Providers()), err
			}
		}
	case n < len(cur):
		// Retire the emptiest providers first.
		type pu struct {
			id   string
			used int64
		}
		var all []pu
		for _, id := range cur {
			if p, ok := a.c.Provider(id); ok {
				all = append(all, pu{id, p.Used()})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].used != all[j].used {
				return all[i].used < all[j].used
			}
			return all[i].id < all[j].id
		})
		for i := 0; i < len(cur)-n; i++ {
			if err := a.c.RemoveProvider(all[i].id); err != nil {
				return len(a.c.Providers()), err
			}
		}
	}
	return len(a.c.Providers()), nil
}
