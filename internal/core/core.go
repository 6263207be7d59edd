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

// Options configures a Cluster. The zero value is usable: NewCluster
// fills defaults.
type Options struct {
	Providers        int      // data providers (default 4)
	MetaProviders    int      // metadata providers (default 2)
	MonitorServices  int      // monitoring services (default 2)
	StorageServers   int      // introspection storage servers (default 2)
	ProviderCapacity int64    // bytes per provider (0 = unbounded)
	Replicas         int      // chunk replication degree for clients (default 1)
	WriteQuorum      int      // replica stores required per chunk (0 = all replicas)
	HedgedReads      bool     // race all replicas on reads instead of serial failover
	Zones            []string // provider zones, round-robin (default one zone)
	PolicySource     string   // policy DSL ("" = policy.DefaultCatalog)
	Monitoring       bool     // attach the introspection stack (default true via NewCluster)
	AgentBatch       int      // monitoring agent batch size (default 32)
	Clock            func() time.Time
	Elasticity       *selfconfig.Config // enable the elasticity controller
	BaseDegree       int                // replication maintenance target (default = Replicas)
	GCGraceEpochs    int                // sweep write-in-progress grace window (0 = default 1, -1 = none)
	WriterLeaseTTL   time.Duration      // writer-lease lifetime without heartbeat (0 = default 30s)
	// ProviderStore mints the backing chunk store for each new provider
	// (nil, or a nil return, = the in-memory MemStore). It is the seam
	// for disk-backed stores and for fault/latency injection in tests.
	ProviderStore func(id string) provider.Store
	// Metrics is the process metrics registry. When set, every actor the
	// cluster assembles — clients, providers, the GC manager, and any S3
	// gateway built over the cluster — records its data-path series there;
	// nil leaves the whole deployment uninstrumented (no overhead).
	Metrics *metrics.Registry
	// Fault enables the fault-tolerance plane (internal/faultdom): every
	// client↔provider conversation gets per-attempt deadlines, retries
	// with jittered backoff, a per-provider circuit breaker, and its
	// outcome fed to a failure detector that steers placement, read
	// ordering and self-optimization heals. nil disables the plane
	// entirely (calls go to providers unguarded, as before).
	Fault *faultdom.Config
	// WrapConn, when set, wraps every provider conn Lookup resolves —
	// inside the fault guard, so injected faults are seen (and retried,
	// counted, broken on) by the plane. It is the chaos-test seam for
	// the storetest conn wrappers (flaky, slow, partitioned).
	WrapConn func(id string, conn client.Conn) client.Conn
}

// Cluster is a fully wired in-process deployment.
type Cluster struct {
	opts Options
	now  func() time.Time

	VM    *vmanager.Manager
	PM    *pmanager.Manager
	Mesh  *monitor.Mesh
	Intro *introspect.Introspector
	Store *introspect.Cluster
	Hist  *history.History
	Trust *trust.Manager
	Enf   *policy.Enforcer
	Eng   *policy.Engine
	Rep   *selfopt.Replicator
	Elast *selfconfig.Controller
	GC    *gc.Manager
	Fault *faultdom.Plane // nil unless Options.Fault is set

	mu        sync.Mutex
	providers map[string]*provider.Provider
	nextProv  int
}

// NewCluster builds and wires a deployment.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Providers <= 0 {
		opts.Providers = 4
	}
	if opts.MetaProviders <= 0 {
		opts.MetaProviders = 2
	}
	if opts.MonitorServices <= 0 {
		opts.MonitorServices = 2
	}
	if opts.StorageServers <= 0 {
		opts.StorageServers = 2
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	if opts.BaseDegree <= 0 {
		opts.BaseDegree = opts.Replicas
	}
	if opts.AgentBatch <= 0 {
		opts.AgentBatch = 32
	}
	if len(opts.Zones) == 0 {
		opts.Zones = []string{"zone0"}
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

	// Monitoring mesh + introspection stack.
	c.Mesh = monitor.NewMesh(opts.MonitorServices, 0)
	c.Intro = introspect.NewIntrospector(0)
	c.Store = introspect.NewCluster(opts.StorageServers, 0, 0)
	c.Hist = history.New()
	c.Mesh.Subscribe(c.Intro)
	c.Mesh.Subscribe(c.Store)
	c.Mesh.Subscribe(c.Hist)

	// Metadata providers behind a ring.
	stores := make([]blobmeta.Store, opts.MetaProviders)
	for i := range stores {
		id := fmt.Sprintf("meta%02d", i)
		stores[i] = blobmeta.NewMemStore(id, c.agentFor(id), c.now)
	}
	ring, err := blobmeta.NewRing(stores...)
	if err != nil {
		return nil, err
	}

	// Fault-tolerance plane (optional). Built before the provider
	// manager so placement can consult its health verdicts.
	if opts.Fault != nil {
		fcfg := *opts.Fault
		if fcfg.Clock == nil {
			fcfg.Clock = opts.Clock
		}
		c.Fault = faultdom.NewPlane(fcfg, opts.Metrics)
	}

	// Version and provider managers.
	c.VM = vmanager.New(ring,
		vmanager.WithEmitter(c.agentFor("vmanager")),
		vmanager.WithClock(c.now))
	pmOpts := []pmanager.Option{
		pmanager.WithEmitter(c.agentFor("pmanager")),
		pmanager.WithClock(c.now),
		pmanager.WithTTL(0),
	}
	if c.Fault != nil {
		pmOpts = append(pmOpts, pmanager.WithHealth(c.Fault.Healthy))
	}
	c.PM = pmanager.New(pmOpts...)

	// Security framework.
	c.Trust = trust.New(trust.WithClock(c.now))
	c.Enf = policy.NewEnforcer(
		policy.WithEmitter(c.agentFor("security")),
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
		selfopt.WithBaseDegree(opts.BaseDegree),
		selfopt.WithEmitter(c.agentFor("selfopt")))

	// Storage lifecycle: every deletion routes through it, every reader
	// pins through it.
	grace := 1
	switch {
	case opts.GCGraceEpochs > 0:
		grace = opts.GCGraceEpochs
	case opts.GCGraceEpochs < 0:
		grace = 0
	}
	gcOpts := []gc.Option{
		gc.WithGraceEpochs(grace),
		gc.WithEmitter(c.agentFor("gc")),
		gc.WithClock(c.now),
		gc.WithMetrics(opts.Metrics),
	}
	if opts.WriterLeaseTTL > 0 {
		gcOpts = append(gcOpts, gc.WithLeaseTTL(opts.WriterLeaseTTL))
	}
	c.GC = gc.New(c.VM, pool{c}, gcOpts...)

	// Self-configuration (optional).
	if opts.Elasticity != nil {
		ctl, err := selfconfig.New(*opts.Elasticity, actuator{c},
			selfconfig.WithEmitter(c.agentFor("selfconfig")))
		if err != nil {
			return nil, err
		}
		c.Elast = ctl
	}
	return c, nil
}

// agentFor returns a monitoring agent emitter for a node if monitoring is
// on, else a Nop.
func (c *Cluster) agentFor(node string) instrument.Emitter {
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
	zone := c.opts.Zones[i%len(c.opts.Zones)]
	popts := []provider.Option{
		provider.WithEmitter(c.agentFor(id)),
		provider.WithClock(c.now),
		provider.WithMetrics(c.opts.Metrics),
	}
	if c.opts.ProviderStore != nil {
		popts = append(popts, provider.WithStore(c.opts.ProviderStore(id)))
	}
	p := provider.New(id, zone, c.opts.ProviderCapacity, popts...)
	c.providers[id] = p
	c.mu.Unlock()
	if c.Fault != nil {
		c.Fault.Track(id)
	}
	if err := c.PM.Register(pmanager.Info{ID: id, Zone: zone, Capacity: c.opts.ProviderCapacity}); err != nil {
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
	if c.Fault != nil {
		c.Fault.Forget(id)
	}
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

// Lookup implements client.Directory. With the fault plane enabled, an
// open-circuited provider fails fast here — before any wire work — so
// reads fail over and writes re-route immediately, and the returned
// conn carries the full guard (per-attempt deadlines, retries, breaker
// and detector observation).
func (c *Cluster) Lookup(ctx context.Context, id string) (client.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conn, err := c.rawConn(id)
	if err != nil {
		return nil, err
	}
	if c.Fault != nil {
		if err := c.Fault.FastFail(id); err != nil {
			return nil, err
		}
		conn = c.Fault.Wrap(id, conn)
	}
	return conn, nil
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
// applied on top of the cluster's defaults (replication degree, write
// quorum, hedged reads). The S3 gateway and benchmarks use it to tune
// per-front-end behavior without reconfiguring the whole cluster.
func (c *Cluster) ClientWith(user string, extra ...client.Option) *client.Client {
	emitter := instrument.NewTap(c.Intro)
	if c.opts.Monitoring {
		emitter.Attach(c.Mesh.NewAgent("client-"+user, c.opts.AgentBatch))
	}
	opts := []client.Option{
		client.WithReplicas(c.opts.Replicas),
		client.WithWriteQuorum(c.opts.WriteQuorum),
		client.WithHedgedReads(c.opts.HedgedReads),
		client.WithGatekeeper(c.Enf),
		client.WithPinner(c.GC),
		client.WithEmitter(emitter),
		client.WithClock(c.now),
		client.WithMetrics(c.opts.Metrics),
		client.WithLeaser(writerLeases{c.GC}),
		client.WithLeaseTTL(c.opts.WriterLeaseTTL),
	}
	if c.Fault != nil {
		opts = append(opts, client.WithHealth(c.Fault.Healthy))
	}
	return client.New(user, c.VM, c.PM, c, append(opts, extra...)...)
}

// Tick advances the control plane at the given instant: providers report
// physical parameters, agents flush, storage servers persist, the
// detection engine scans, replication heals, elasticity reacts. Call it
// periodically (e.g. every few seconds of real or simulated time).
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
		_ = c.PM.Heartbeat(p.ID(), st.Used, st.Active)
	}
	c.Mesh.FlushAll()
	c.Store.FlushAll()
	c.Eng.Evaluate(now)
	if c.Elast != nil {
		c.Elast.Tick(now, c.Intro.MeanLoad())
	}
	if c.Fault != nil {
		// Active failure detection: ping every live provider through its
		// raw (unguarded, fault-injected) conn, in parallel so one
		// blackholed provider costs the tick a single CallTimeout, not
		// one per victim. Detector verdicts that crossed to Dead since
		// the last tick then trigger a replication heal around the body.
		ctx := context.Background() //ctxfirst:allow control-plane tick has no caller context; Ping and the heal's transfers bound themselves with CallTimeout
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
	// The heal must not copy replicas onto a dead or open-circuited
	// provider — that only manufactures more degraded replicas.
	return a.c.Fault == nil || a.c.Fault.Healthy(id)
}

// Pool exposes the cluster's providers as a selfopt.Pool (for reapers).
func (c *Cluster) Pool() selfopt.Pool { return pool{c} }

// writerLeases adapts the lifecycle manager to the client's Leaser
// hook. The indirection exists for the interface types: OpenWriterLease
// returns the concrete *gc.WriterLease, and returning it through an
// interface-typed error path directly would hand callers a typed-nil
// client.Lease.
type writerLeases struct{ g *gc.Manager }

func (w writerLeases) OpenLease(blob, base uint64) (client.Lease, error) {
	l, err := w.g.OpenWriterLease(blob, base)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// GCRunner returns a background lifecycle runner (periodic retention +
// sweep) over the cluster's GC manager; run it with Run(ctx).
func (c *Cluster) GCRunner(interval time.Duration) *gc.Runner {
	return gc.NewRunner(c.GC, interval)
}

// NewReaper returns a removal-strategy reaper whose deletions route
// through the cluster's lifecycle manager, so reader pins are honoured
// and healed BLOBs reclaim exactly.
func (c *Cluster) NewReaper(strategies ...selfopt.Strategy) *selfopt.Reaper {
	r := selfopt.NewReaper(c.VM, c.Pool(), c.agentFor("reaper"), strategies...)
	r.RouteDeletes(c.GC)
	return r
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
