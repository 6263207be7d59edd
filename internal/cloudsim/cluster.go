package cloudsim

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"blobseer/internal/history"
	"blobseer/internal/instrument"
	"blobseer/internal/metrics"
	"blobseer/internal/pmanager"
	"blobseer/internal/policy"
	"blobseer/internal/trust"
)

// MB is 2^20 bytes, the unit the paper reports throughput in.
const MB = float64(1 << 20)

// Config parameterizes a simulated deployment.
type Config struct {
	Providers   int     // data-provider count
	ProviderNIC float64 // bytes/s per provider (default 125 MB/s ≈ GbE)
	ClientNIC   float64 // bytes/s per correct client (default 125 MB/s)
	Efficiency  float64 // protocol efficiency on the client side (default 0.88)

	ChunkSize int64 // default 64 MiB

	VMLatency    time.Duration // version/metadata RPC latency (default 1 ms)
	MonDelay     time.Duration // instrumentation → activity-history latency (default 10 s)
	EnginePeriod time.Duration // detection-engine scan period (default 10 s)

	Monitoring     bool          // charge instrumentation cost and count monitoring parameters (MonParams)
	PerEventCost   time.Duration // instrumentation cost per monitored event (default 20 µs)
	EventsPerChunk int           // monitored parameters per written chunk (default 8)

	Security     bool   // run the detection engine + enforcement
	PolicySource string // DSL; default SimCatalog

	Seed int64
}

// SimCatalog is the DoS policy used by the C-experiments: correct clients
// stream ~0.4 write ops/s at ≤110 MB/s, attackers exceed both margins.
// The 40 s window must comfortably exceed the monitoring pipeline's
// aggregation latency (MonDelay, default 10 s): events reach the
// activity history that much later, so a window equal to the latency
// would always scan an empty range. The 4 GB evidence threshold makes
// detection time scale with attacker saturation, as observed on
// Grid'5000: throttled attackers take longer to accumulate evidence.
const SimCatalog = `
policy dos_write_flood {
    when rate(write, 40s) > 0.8 and bytes(write, 40s) > 4GB
    severity high
    then block(600s), log()
}
`

func (c Config) withDefaults() Config {
	if c.Providers <= 0 {
		c.Providers = 48
	}
	if c.ProviderNIC <= 0 {
		c.ProviderNIC = 125 * MB
	}
	if c.ClientNIC <= 0 {
		c.ClientNIC = 125 * MB
	}
	if c.Efficiency <= 0 || c.Efficiency > 1 {
		c.Efficiency = 0.88
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 64 << 20
	}
	if c.VMLatency <= 0 {
		c.VMLatency = time.Millisecond
	}
	if c.MonDelay <= 0 {
		c.MonDelay = 10 * time.Second
	}
	if c.EnginePeriod <= 0 {
		c.EnginePeriod = 10 * time.Second
	}
	if c.PerEventCost <= 0 {
		c.PerEventCost = 20 * time.Microsecond
	}
	if c.EventsPerChunk <= 0 {
		c.EventsPerChunk = 8
	}
	if c.PolicySource == "" {
		c.PolicySource = SimCatalog
	}
	return c
}

// Profile describes one simulated client process.
type Profile struct {
	Malicious bool
	// Stripe is the number of parallel chunk transfers per write op.
	Stripe int
	// OpBytes is the size of each write operation.
	OpBytes int64
	// TotalBytes ends the workload after this many bytes (0 = endless).
	TotalBytes int64
	// NIC limits the client's own link (0 = unlimited, used for DoS
	// attackers, which model coordinated multi-source floods).
	NIC float64
	// StartAt delays the first op; StopAt ends the workload (0 = never).
	StartAt, StopAt time.Duration
	// Think pauses between ops.
	Think time.Duration
}

// Client is one simulated client process.
type Client struct {
	d    *Deployment
	user string
	prof Profile
	blob uint64
	nic  *Resource // nil when unlimited

	bytesDone   int64
	opDurations []float64 // seconds
	opStarts    []float64 // seconds since epoch
	finishedAt  time.Duration
	gaveUp      bool
	inflight    int
	killed      bool
	opStart     time.Duration
	paramChunks int64 // chunks [0, paramChunks) have their parameters counted
}

// User returns the client identity.
func (c *Client) User() string { return c.user }

// BytesDone returns the bytes successfully written.
func (c *Client) BytesDone() int64 { return c.bytesDone }

// OpRecord is one completed operation: start instant and duration, both
// in seconds of simulated time.
type OpRecord struct {
	StartS, DurS float64
}

// OpRecords returns the completed ops with their start times.
func (c *Client) OpRecords() []OpRecord {
	out := make([]OpRecord, len(c.opDurations))
	for i := range c.opDurations {
		out[i] = OpRecord{StartS: c.opStarts[i], DurS: c.opDurations[i]}
	}
	return out
}

// FinishedAt returns when the workload completed (0 when unfinished).
func (c *Client) FinishedAt() time.Duration { return c.finishedAt }

// Deployment is a simulated BlobSeer deployment on the virtual testbed.
type Deployment struct {
	Cfg Config
	Sim *Sim
	Net *Net

	PM    *pmanager.Manager
	Hist  *history.History
	Enf   *policy.Enforcer
	Eng   *policy.Engine
	Trust *trust.Manager

	// MonParams counts the distinct monitoring parameters the written
	// chunks generate (EXP-B's parameter count); 0 without Monitoring.
	MonParams int

	provRes  map[string]*Resource
	clients  []*Client
	nextBlob uint64
	rng      *rand.Rand

	correctBytes float64
	lastSample   float64
	Throughput   *metrics.TimeSeries // aggregate correct-client MB/s, 1 Hz

	attackStart map[string]time.Duration
}

// NewDeployment builds a deployment from the config.
func NewDeployment(cfg Config) (*Deployment, error) {
	cfg = cfg.withDefaults()
	d := &Deployment{
		Cfg:         cfg,
		Sim:         NewSim(),
		provRes:     make(map[string]*Resource),
		rng:         rand.New(rand.NewSource(cfg.Seed + 1)),
		Throughput:  metrics.NewTimeSeries(1 << 16),
		attackStart: make(map[string]time.Duration),
	}
	d.Net = NewNet(d.Sim)
	d.PM = pmanager.New(pmanager.WithClock(d.Sim.Clock()))
	for i := 0; i < cfg.Providers; i++ {
		id := fmt.Sprintf("p%03d", i)
		d.provRes[id] = NewResource(id, cfg.ProviderNIC)
		if err := d.PM.Register(pmanager.Info{ID: id, Zone: fmt.Sprintf("site%d", i%9)}); err != nil {
			return nil, err
		}
	}
	d.Hist = history.New(history.WithMaxAge(5 * time.Minute))
	d.Trust = trust.New(trust.WithClock(d.Sim.Clock()))
	d.Enf = policy.NewEnforcer(policy.WithClock(d.Sim.Clock()))
	if cfg.Security {
		policies, err := policy.Parse(cfg.PolicySource)
		if err != nil {
			return nil, err
		}
		sink := trust.Sink{Inner: killSink{d}, Trust: d.Trust}
		d.Eng = policy.NewEngine(d.Hist, policies, sink,
			policy.WithTrust(d.Trust),
			policy.WithCooldown(cfg.EnginePeriod),
			policy.WithActivityWindow(time.Minute))
		d.Sim.Every(cfg.EnginePeriod, func() bool {
			d.Eng.Evaluate(d.Sim.Now())
			return true
		})
	}
	// 1 Hz throughput sampler for the timeline experiments.
	d.Sim.Every(time.Second, func() bool {
		delta := d.correctBytes - d.lastSample
		d.lastSample = d.correctBytes
		d.Throughput.Add(d.Sim.Now(), delta/MB)
		return true
	})
	return d, nil
}

// killSink applies enforcement inside the simulation: in addition to the
// standard enforcer actions, blocking a user terminates their in-flight
// transfers (BlobSeer drops the connections of blocked clients).
type killSink struct{ d *Deployment }

func (k killSink) Log(v policy.Violation)   { k.d.Enf.Log(v) }
func (k killSink) Alert(v policy.Violation) { k.d.Enf.Alert(v) }
func (k killSink) Block(user string, dur time.Duration, v policy.Violation) {
	k.d.Enf.Block(user, dur, v)
	k.d.Net.KillUser(user)
}
func (k killSink) Throttle(user string, rps float64, v policy.Violation) {
	k.d.Enf.Throttle(user, rps, v)
}
func (k killSink) Quarantine(user string, v policy.Violation) {
	k.d.Enf.Quarantine(user, v)
	k.d.Net.KillUser(user)
}

// AddClient registers a client process with the given profile; it starts
// at prof.StartAt once Run is called.
func (d *Deployment) AddClient(user string, prof Profile) *Client {
	if prof.Stripe <= 0 {
		prof.Stripe = 4
	}
	if prof.OpBytes <= 0 {
		prof.OpBytes = 256 << 20
	}
	d.nextBlob++
	c := &Client{d: d, user: user, prof: prof, blob: d.nextBlob}
	if prof.NIC > 0 {
		eff := prof.NIC
		if !prof.Malicious {
			eff *= d.Cfg.Efficiency
		}
		c.nic = NewResource("nic-"+user, eff)
	}
	if prof.Malicious {
		d.attackStart[user] = prof.StartAt
	}
	d.clients = append(d.clients, c)
	d.Sim.Schedule(prof.StartAt, c.step)
	return c
}

// Run advances the simulation to the given instant.
func (d *Deployment) Run(until time.Duration) { d.Sim.Run(until) }

// step begins the client's next write operation.
func (c *Client) step() {
	d := c.d
	now := d.Sim.Elapsed()
	if c.prof.StopAt > 0 && now >= c.prof.StopAt {
		return
	}
	if c.prof.TotalBytes > 0 && c.bytesDone >= c.prof.TotalBytes {
		if c.finishedAt == 0 {
			c.finishedAt = now
		}
		return
	}
	if d.Cfg.Security {
		//ctxfirst:allow simulated clients have no caller ctx; the sim clock, not cancellation, bounds a run
		if err := d.Enf.Allow(context.Background(), c.user, instrument.OpWrite); err != nil {
			// Blocked or throttled: correct clients back off briefly;
			// attackers keep hammering until their block outlives the run.
			retry := 500 * time.Millisecond
			if c.prof.Malicious {
				c.gaveUp = true
				return
			}
			d.Sim.Schedule(retry, c.step)
			return
		}
	}
	c.opStart = now
	c.killed = false
	// Version assignment (metadata RPC) plus instrumentation cost.
	lat := d.Cfg.VMLatency
	if d.Cfg.Monitoring {
		chunks := (c.prof.OpBytes + d.Cfg.ChunkSize - 1) / d.Cfg.ChunkSize
		lat += time.Duration(chunks*int64(d.Cfg.EventsPerChunk)) * d.Cfg.PerEventCost
	}
	d.Sim.Schedule(lat, c.transfer)
}

// transfer launches the op's parallel chunk flows.
func (c *Client) transfer() {
	d := c.d
	placement, err := d.PM.Allocate(c.prof.Stripe, 1)
	if err != nil {
		// No providers: retry later.
		d.Sim.Schedule(time.Second, c.step)
		return
	}
	per := float64(c.prof.OpBytes) / float64(c.prof.Stripe)
	c.inflight = c.prof.Stripe
	for i := 0; i < c.prof.Stripe; i++ {
		res := []*Resource{d.provRes[placement[i][0]]}
		if c.nic != nil {
			res = append(res, c.nic)
		}
		d.Net.Start(c.user, per, res, func(completed bool) {
			if !completed {
				c.killed = true
			}
			c.inflight--
			if c.inflight == 0 {
				c.finishOp()
			}
		})
	}
}

// finishOp publishes the version and accounts the op.
func (c *Client) finishOp() {
	d := c.d
	if c.killed {
		// Blocked mid-transfer: the op never publishes.
		if !c.prof.Malicious {
			d.Sim.Schedule(500*time.Millisecond, c.step)
		} else {
			c.gaveUp = true
		}
		return
	}
	d.Sim.Schedule(d.Cfg.VMLatency, func() {
		now := d.Sim.Elapsed()
		c.bytesDone += c.prof.OpBytes
		c.opDurations = append(c.opDurations, (now - c.opStart).Seconds())
		c.opStarts = append(c.opStarts, c.opStart.Seconds())
		if !c.prof.Malicious {
			d.correctBytes += float64(c.prof.OpBytes)
		}
		// The write event reaches the activity history after the
		// monitoring pipeline's aggregation latency.
		user, blob, bytes := c.user, c.blob, c.prof.OpBytes
		opTime := d.Sim.Now()
		d.Sim.Schedule(d.Cfg.MonDelay, func() {
			d.Hist.Append(history.Event{
				Time: opTime, User: user, Op: "write", Blob: blob, Bytes: bytes, OK: true,
			})
		})
		if d.Cfg.Monitoring {
			c.countChunkParams()
		}
		if c.prof.Think > 0 {
			d.Sim.Schedule(c.prof.Think, c.step)
		} else {
			d.Sim.Schedule(0, c.step)
		}
	})
}

// paramKinds is how many distinct kinds of per-chunk parameter exist:
// size, duration, offset, provider, version, throughput, latency,
// replication, checksum and age.
const paramKinds = 10

// countChunkParams counts the monitoring parameters the op just written
// adds: one series per (blob, chunk, kind) for each chunk it touched,
// with EventsPerChunk parameters per chunk cycling over the kinds. A
// chunk an earlier op already touched adds none.
func (c *Client) countChunkParams() {
	d := c.d
	chunks := (c.prof.OpBytes + d.Cfg.ChunkSize - 1) / d.Cfg.ChunkSize
	first := (c.bytesDone - c.prof.OpBytes) / d.Cfg.ChunkSize
	end := first + chunks
	if c.paramChunks > first {
		first = c.paramChunks
	}
	if end <= first {
		return
	}
	c.paramChunks = end
	d.MonParams += int(end-first) * min(d.Cfg.EventsPerChunk, paramKinds)
}

// CorrectThroughputMBs returns the mean per-client throughput (MB/s) of
// correct clients over [from, to], from completed bytes.
func (d *Deployment) CorrectThroughputMBs(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var sum float64
	var n int
	for _, c := range d.clients {
		if c.prof.Malicious {
			continue
		}
		n++
	}
	if n == 0 {
		return 0
	}
	for _, p := range d.Throughput.Points() {
		el := p.Time.Sub(Epoch)
		if el > from && el <= to {
			sum += p.Value
		}
	}
	return sum / (to - from).Seconds() / float64(n)
}

// AggregateThroughputMBs returns total correct-client MB/s over a window.
func (d *Deployment) AggregateThroughputMBs(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var sum float64
	for _, p := range d.Throughput.Points() {
		el := p.Time.Sub(Epoch)
		if el > from && el <= to {
			sum += p.Value
		}
	}
	return sum / (to - from).Seconds()
}

// DetectionDelays returns, for each detected attacker, the delay between
// its attack start and its first detection, sorted ascending.
func (d *Deployment) DetectionDelays() []time.Duration {
	if d.Eng == nil {
		return nil
	}
	var out []time.Duration
	for user, det := range d.Eng.DetectedUsers() {
		start, ok := d.attackStart[user]
		if !ok {
			continue
		}
		out = append(out, det.Sub(Epoch)-start)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// MeanProviderLoad returns the mean number of active transfers per
// registered provider — the elasticity controller's input signal.
func (d *Deployment) MeanProviderLoad() float64 {
	alive := d.PM.Alive()
	if len(alive) == 0 {
		return 0
	}
	var sum int
	for _, in := range alive {
		if r, ok := d.provRes[in.ID]; ok {
			sum += r.ActiveFlows()
		}
	}
	return float64(sum) / float64(len(alive))
}

// PoolSize implements selfconfig.Actuator: the registered provider count.
func (d *Deployment) PoolSize() int {
	n, _ := d.PM.Size()
	return n
}

// ScaleTo implements selfconfig.Actuator: it registers new providers or
// retires the least-loaded ones. Retired providers finish their in-flight
// transfers (their NIC resource persists) but receive no new placements.
func (d *Deployment) ScaleTo(n int) (int, error) {
	cur := d.PM.Alive()
	switch {
	case n > len(cur):
		for i := len(cur); i < n; i++ {
			id := fmt.Sprintf("p%03d", len(d.provRes))
			for _, taken := d.provRes[id]; taken; _, taken = d.provRes[id] {
				id = fmt.Sprintf("p%03d", len(d.provRes)+d.rng.Intn(1<<20))
			}
			d.provRes[id] = NewResource(id, d.Cfg.ProviderNIC)
			if err := d.PM.Register(pmanager.Info{ID: id, Zone: "elastic"}); err != nil {
				return d.PoolSize(), err
			}
		}
	case n < len(cur):
		type pl struct {
			id   string
			load int
		}
		all := make([]pl, 0, len(cur))
		for _, in := range cur {
			load := 0
			if r, ok := d.provRes[in.ID]; ok {
				load = r.ActiveFlows()
			}
			all = append(all, pl{in.ID, load})
		}
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if all[j].load < all[i].load || (all[j].load == all[i].load && all[j].id < all[i].id) {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		for i := 0; i < len(cur)-n; i++ {
			if err := d.PM.Unregister(all[i].id); err != nil {
				return d.PoolSize(), err
			}
		}
	}
	return d.PoolSize(), nil
}

// Attackers returns the malicious users.
func (d *Deployment) Attackers() []string {
	var out []string
	for _, c := range d.clients {
		if c.prof.Malicious {
			out = append(out, c.user)
		}
	}
	return out
}
