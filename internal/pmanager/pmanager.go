// Package pmanager implements BlobSeer's provider manager: the actor that
// keeps track of the existing data providers and implements the
// allocation strategies that map new chunks to available providers.
package pmanager

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"blobseer/internal/instrument"
)

// Errors returned by the manager.
var (
	ErrNoProviders   = errors.New("pmanager: no alive providers")
	ErrNotEnough     = errors.New("pmanager: not enough alive providers for replication degree")
	ErrUnknown       = errors.New("pmanager: unknown provider")
	ErrAlreadyExists = errors.New("pmanager: provider already registered")
)

// Info is the manager's view of one data provider as registered.
// Strategies read Used and Active as load signals; callers that
// allocate over their own view (the ablation runs) fill them in.
type Info struct {
	ID       string
	Zone     string
	Capacity int64 // bytes, ≤0 = unbounded
	Used     int64 // bytes
	Active   int   // in-flight transfers
}

// Free returns remaining bytes, or a large pseudo-capacity when
// unbounded, so strategies can compare providers uniformly.
func (i Info) Free() int64 {
	if i.Capacity <= 0 {
		return 1 << 50
	}
	f := i.Capacity - i.Used
	if f < 0 {
		f = 0
	}
	return f
}

// Strategy decides chunk placement. view is sorted by provider ID and
// contains only alive providers; implementations must return, for each of
// the n chunks, `replicas` distinct provider IDs.
type Strategy interface {
	Name() string
	Allocate(n, replicas int, view []Info) ([][]string, error)
}

// RoundRobin cycles through providers, the default BlobSeer strategy.
type RoundRobin struct {
	mu   sync.Mutex
	next int
}

// Name implements Strategy.
func (*RoundRobin) Name() string { return "round-robin" }

// Allocate implements Strategy.
func (r *RoundRobin) Allocate(n, replicas int, view []Info) ([][]string, error) {
	if err := checkView(replicas, view); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]string, n)
	for c := 0; c < n; c++ {
		ids := make([]string, replicas)
		for k := 0; k < replicas; k++ {
			ids[k] = view[(r.next+k)%len(view)].ID
		}
		r.next = (r.next + 1) % len(view)
		out[c] = ids
	}
	return out, nil
}

// Random places chunks uniformly at random (seeded, deterministic).
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom returns a Random strategy with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (*Random) Name() string { return "random" }

// Allocate implements Strategy.
func (r *Random) Allocate(n, replicas int, view []Info) ([][]string, error) {
	if err := checkView(replicas, view); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]string, n)
	for c := 0; c < n; c++ {
		perm := r.rng.Perm(len(view))
		ids := make([]string, replicas)
		for k := 0; k < replicas; k++ {
			ids[k] = view[perm[k]].ID
		}
		out[c] = ids
	}
	return out, nil
}

// LeastUsed prefers providers with the fewest in-flight transfers,
// breaking ties by most free space then by ID — the load-balancing
// strategy the paper's self-optimization direction calls for. Ordering
// by activity first matters: within one allocation the strategy charges
// its own placements, so a burst spreads instead of hammering the single
// freest provider.
type LeastUsed struct{}

// Name implements Strategy.
func (LeastUsed) Name() string { return "least-used" }

// Allocate implements Strategy.
func (LeastUsed) Allocate(n, replicas int, view []Info) ([][]string, error) {
	if err := checkView(replicas, view); err != nil {
		return nil, err
	}
	// Work on a mutable copy so we can account for our own placements.
	local := append([]Info(nil), view...)
	out := make([][]string, n)
	for c := 0; c < n; c++ {
		sort.Slice(local, func(i, j int) bool {
			if local[i].Active != local[j].Active {
				return local[i].Active < local[j].Active
			}
			if local[i].Free() != local[j].Free() {
				return local[i].Free() > local[j].Free()
			}
			return local[i].ID < local[j].ID
		})
		ids := make([]string, replicas)
		for k := 0; k < replicas; k++ {
			ids[k] = local[k].ID
			local[k].Active++ // pretend the transfer started
		}
		out[c] = ids
	}
	return out, nil
}

// ZoneAware spreads the replicas of each chunk across distinct zones when
// possible (fault isolation across Grid'5000 sites), choosing the freest
// provider within each zone.
type ZoneAware struct{}

// Name implements Strategy.
func (ZoneAware) Name() string { return "zone-aware" }

// Allocate implements Strategy.
func (ZoneAware) Allocate(n, replicas int, view []Info) ([][]string, error) {
	if err := checkView(replicas, view); err != nil {
		return nil, err
	}
	byZone := map[string][]Info{}
	var zones []string
	for _, in := range view {
		if _, ok := byZone[in.Zone]; !ok {
			zones = append(zones, in.Zone)
		}
		byZone[in.Zone] = append(byZone[in.Zone], in)
	}
	sort.Strings(zones)
	for _, z := range zones {
		zs := byZone[z]
		sort.Slice(zs, func(i, j int) bool {
			if zs[i].Free() != zs[j].Free() {
				return zs[i].Free() > zs[j].Free()
			}
			return zs[i].ID < zs[j].ID
		})
	}
	out := make([][]string, n)
	zi := 0
	rot := map[string]int{} // per-zone rotation so bursts spread in-zone
	for c := 0; c < n; c++ {
		ids := make([]string, 0, replicas)
		seen := map[string]bool{}
		// First pass: one replica per distinct zone.
		for len(ids) < replicas {
			z := zones[zi%len(zones)]
			zi++
			zs := byZone[z]
			for k := 0; k < len(zs); k++ {
				cand := zs[(rot[z]+k)%len(zs)]
				if !seen[cand.ID] {
					ids = append(ids, cand.ID)
					seen[cand.ID] = true
					rot[z]++
					break
				}
			}
			if zi%len(zones) == 0 && len(ids) < replicas {
				// Wrapped all zones; fall back to any unused provider.
				for _, cand := range view {
					if len(ids) == replicas {
						break
					}
					if !seen[cand.ID] {
						ids = append(ids, cand.ID)
						seen[cand.ID] = true
					}
				}
				break
			}
		}
		out[c] = ids
	}
	return out, nil
}

func checkView(replicas int, view []Info) error {
	if len(view) == 0 {
		return ErrNoProviders
	}
	if replicas < 1 {
		return fmt.Errorf("pmanager: replication degree %d < 1", replicas)
	}
	if replicas > len(view) {
		return fmt.Errorf("%w: need %d, have %d", ErrNotEnough, replicas, len(view))
	}
	return nil
}

// Manager tracks providers and serves allocations.
type Manager struct {
	mu       sync.Mutex
	strategy Strategy
	emit     instrument.Emitter
	now      func() time.Time
	health   func(id string) bool
	view     map[string]Info
}

// Option configures a Manager.
type Option func(*Manager)

// WithStrategy sets the allocation strategy (default RoundRobin).
func WithStrategy(s Strategy) Option {
	return func(m *Manager) {
		if s != nil {
			m.strategy = s
		}
	}
}

// WithEmitter attaches instrumentation.
func WithEmitter(e instrument.Emitter) Option {
	return func(m *Manager) {
		if e != nil {
			m.emit = e
		}
	}
}

// WithClock overrides the time source.
func WithClock(now func() time.Time) Option {
	return func(m *Manager) {
		if now != nil {
			m.now = now
		}
	}
}

// WithHealth attaches an external health verdict (the fault-tolerance
// plane's per-provider alive/dead verdict): providers it
// reports unhealthy are excluded from placement. When excluding them
// would leave fewer providers than one chunk's replica set needs,
// Allocate degrades gracefully and offers every registered provider
// instead — storing to a dead provider and letting the write quorum
// decide beats refusing the write outright.
func WithHealth(h func(id string) bool) Option {
	return func(m *Manager) { m.health = h }
}

// New returns an empty manager.
func New(opts ...Option) *Manager {
	m := &Manager{
		strategy: &RoundRobin{},
		emit:     instrument.Nop{},
		now:      time.Now,
		view:     make(map[string]Info),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Register adds a provider to the pool.
func (m *Manager) Register(info Info) error {
	m.mu.Lock()
	if _, ok := m.view[info.ID]; ok {
		m.mu.Unlock()
		return ErrAlreadyExists
	}
	m.view[info.ID] = info
	m.mu.Unlock()
	m.emit.Emit(instrument.Event{
		Time: m.now(), Actor: instrument.ActorPManager, Node: info.ID, Op: instrument.OpJoin,
	})
	return nil
}

// Unregister removes a provider from the pool.
func (m *Manager) Unregister(id string) error {
	m.mu.Lock()
	_, ok := m.view[id]
	delete(m.view, id)
	m.mu.Unlock()
	if !ok {
		return ErrUnknown
	}
	m.emit.Emit(instrument.Event{
		Time: m.now(), Actor: instrument.ActorPManager, Node: id, Op: instrument.OpLeave,
	})
	return nil
}

// Alive returns the providers placement may use — every registered
// provider the health verdict, if any, does not veto — sorted by ID for
// deterministic strategies.
func (m *Manager) Alive() []Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked(true)
}

// viewLocked returns the registered providers sorted by ID, dropping
// health-vetoed ones when useHealth is set.
func (m *Manager) viewLocked(useHealth bool) []Info {
	out := make([]Info, 0, len(m.view))
	for _, info := range m.view {
		if useHealth && m.health != nil && !m.health(info.ID) {
			continue
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Size returns (alive, total) provider counts.
func (m *Manager) Size() (alive, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.viewLocked(true)), len(m.view)
}

// Allocate maps n new chunks to providers with the configured replication
// degree. The result has one []string of distinct provider IDs per chunk.
func (m *Manager) Allocate(n, replicas int) ([][]string, error) {
	m.mu.Lock()
	view := m.viewLocked(true)
	if m.health != nil && len(view) < replicas {
		// Graceful degradation: too many providers are health-vetoed to
		// fill one replica set. Fall back to every registered provider —
		// the write quorum, not placement, decides whether the write lands.
		view = m.viewLocked(false)
	}
	strat := m.strategy
	m.mu.Unlock()
	placement, err := strat.Allocate(n, replicas, view)
	ev := instrument.Event{
		Time: m.now(), Actor: instrument.ActorPManager, Op: instrument.OpAlloc,
		Bytes: int64(n), Value: float64(replicas),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	m.emit.Emit(ev)
	return placement, err
}
