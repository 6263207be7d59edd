package cloudsim

import (
	"fmt"
	"math"
	"time"
)

// Resource is a capacity-limited link (a node's NIC) shared by flows with
// max-min fairness.
type Resource struct {
	ID  string
	Cap float64 // bytes per second
	n   int     // active flows (bookkeeping)
}

// NewResource returns a link with the given capacity in bytes/s.
func NewResource(id string, capacity float64) *Resource {
	if capacity <= 0 {
		panic("cloudsim: resource capacity must be positive")
	}
	return &Resource{ID: id, Cap: capacity}
}

// ActiveFlows returns the number of flows currently crossing the link.
func (r *Resource) ActiveFlows() int { return r.n }

// Flow is one in-progress transfer across a set of resources.
type Flow struct {
	id        int64
	User      string
	remaining float64
	rate      float64
	res       []*Resource
	done      func(completed bool)
	dead      bool
}

// Rate returns the flow's current max-min fair rate in bytes/s.
func (f *Flow) Rate() float64 { return f.rate }

// Net is the fluid-flow network: transfers progress at max-min fair
// rates. Rate recomputation is lazy — all starts, kills and completions
// that land on the same simulated instant are settled by one reshape, so
// a 64-flow operation costs one recomputation, not 64.
type Net struct {
	sim     *Sim
	flows   map[int64]*Flow
	nextID  int64
	last    time.Duration // last progress update
	wake    *Timer
	dirty   bool
	started int64
	sumB    float64
}

// NewNet returns a network driven by the simulation kernel.
func NewNet(sim *Sim) *Net {
	return &Net{sim: sim, flows: make(map[int64]*Flow)}
}

// Start begins a transfer of size bytes across the given resources; done
// is invoked when the transfer completes (completed=true) or is killed
// (completed=false). Zero-size transfers complete via an event at the
// current instant (preserving causal ordering).
func (n *Net) Start(user string, size float64, resources []*Resource, done func(completed bool)) *Flow {
	if size < 0 {
		panic("cloudsim: negative flow size")
	}
	n.advance()
	n.nextID++
	f := &Flow{id: n.nextID, User: user, remaining: size, res: resources, done: done}
	if size == 0 {
		n.sim.Schedule(0, func() {
			if done != nil {
				done(true)
			}
		})
		return f
	}
	n.flows[f.id] = f
	for _, r := range f.res {
		r.n++
	}
	n.started++
	n.sumB += size
	n.markDirty()
	return f
}

// Kill terminates a flow without completing it (used when the security
// framework blocks a user mid-transfer).
func (n *Net) Kill(f *Flow) {
	if f == nil || f.dead {
		return
	}
	if _, ok := n.flows[f.id]; !ok {
		return
	}
	n.advance()
	n.remove(f)
	n.markDirty()
	if f.done != nil {
		f.done(false)
	}
}

// KillUser terminates all flows of a user and returns how many died.
func (n *Net) KillUser(user string) int {
	var victims []*Flow
	for _, f := range n.flows {
		if f.User == user {
			victims = append(victims, f)
		}
	}
	for _, f := range victims {
		n.Kill(f)
	}
	return len(victims)
}

// Active returns the number of in-progress flows.
func (n *Net) Active() int { return len(n.flows) }

// Stats returns (flows started, total bytes offered).
func (n *Net) Stats() (started int64, bytes float64) { return n.started, n.sumB }

func (n *Net) remove(f *Flow) {
	f.dead = true
	delete(n.flows, f.id)
	for _, r := range f.res {
		r.n--
	}
}

// markDirty schedules a settle at the current instant (once).
func (n *Net) markDirty() {
	if n.dirty {
		return
	}
	n.dirty = true
	n.sim.Schedule(0, n.settle)
}

// advance progresses every flow to the current instant at its last rate.
func (n *Net) advance() {
	now := n.sim.Elapsed()
	dt := (now - n.last).Seconds()
	n.last = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 1e-6 {
			f.remaining = 0
		}
	}
}

// settle is the single reconciliation point: progress flows, retire the
// finished ones, recompute max-min rates, schedule the next wake-up, then
// run completion callbacks (which may start new flows, re-dirtying).
func (n *Net) settle() {
	n.dirty = false
	n.advance()
	var finished []*Flow
	for _, f := range n.flows {
		if f.remaining <= 1e-3 {
			finished = append(finished, f)
		}
	}
	// Deterministic callback order.
	for i := 0; i < len(finished); i++ {
		for j := i + 1; j < len(finished); j++ {
			if finished[j].id < finished[i].id {
				finished[i], finished[j] = finished[j], finished[i]
			}
		}
	}
	for _, f := range finished {
		n.remove(f)
	}
	n.reshape()
	for _, f := range finished {
		if f.done != nil {
			f.done(true)
		}
	}
}

// reshape recomputes max-min fair rates and schedules the next completion
// wake-up. Water-filling: repeatedly find the tightest resource, freeze
// its flows at the fair share, subtract, repeat.
func (n *Net) reshape() {
	if n.wake != nil {
		n.wake.Cancel()
		n.wake = nil
	}
	if len(n.flows) == 0 {
		return
	}
	type rs struct {
		capLeft float64
		flows   []*Flow
		live    int
	}
	resState := map[*Resource]*rs{}
	for _, f := range n.flows {
		f.rate = -1
		for _, r := range f.res {
			st, ok := resState[r]
			if !ok {
				st = &rs{capLeft: r.Cap}
				resState[r] = st
			}
			st.flows = append(st.flows, f)
			st.live++
		}
	}
	unfrozen := len(n.flows)
	for unfrozen > 0 {
		minShare := math.Inf(1)
		var minRes *rs
		for _, st := range resState {
			if st.live == 0 {
				continue
			}
			share := st.capLeft / float64(st.live)
			if share < minShare {
				minShare = share
				minRes = st
			}
		}
		if minRes == nil {
			for _, f := range n.flows {
				if f.rate < 0 {
					f.rate = 1e12
					unfrozen--
				}
			}
			break
		}
		for _, f := range minRes.flows {
			if f.rate >= 0 {
				continue
			}
			f.rate = minShare
			unfrozen--
			for _, r := range f.res {
				st := resState[r]
				st.capLeft -= minShare
				if st.capLeft < 0 {
					st.capLeft = 0
				}
				st.live--
			}
		}
	}
	// Schedule the next completion.
	next := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	d := time.Duration(next * float64(time.Second))
	if d <= 0 {
		// Sub-nanosecond completions truncate to zero, which would wake
		// at the same instant without progressing time; round up so the
		// residual drains.
		d = 1
	}
	n.wake = n.sim.Schedule(d, n.settle)
}

// String implements fmt.Stringer for diagnostics.
func (n *Net) String() string {
	return fmt.Sprintf("net(flows=%d)", len(n.flows))
}
