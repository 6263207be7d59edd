// Package instrument is the lowest layer of the paper's three-layer
// introspection architecture: the instrumentation code embedded in every
// BlobSeer actor, generating events that the monitoring layer gathers.
//
// Events carry explicit timestamps so the same instrumentation runs under
// both real time and the simulator's virtual clock.
package instrument

import (
	"sync"
	"time"
)

// Op identifies the operation an event describes.
type Op string

// Operations emitted by BlobSeer actors.
const (
	OpCreate     Op = "create"      // client: blob creation
	OpRead       Op = "read"        // client: range read
	OpWrite      Op = "write"       // client: range write
	OpAppend     Op = "append"      // client: append
	OpPublish    Op = "publish"     // version manager: version published
	OpAssign     Op = "assign"      // version manager: version assigned
	OpAlloc      Op = "alloc"       // provider manager: chunk placement
	OpStore      Op = "store"       // data provider: chunk stored
	OpFetch      Op = "fetch"       // data provider: chunk fetched
	OpDelete     Op = "delete"      // data provider: chunk removed
	OpMetaPut    Op = "meta_put"    // metadata provider: node written
	OpMetaGet    Op = "meta_get"    // metadata provider: node read
	OpHeartbeat  Op = "heartbeat"   // provider liveness report
	OpJoin       Op = "join"        // provider joined the pool
	OpLeave      Op = "leave"       // provider left the pool
	OpReplicate  Op = "replicate"   // self-optimization: re-replication
	OpEvict      Op = "evict"       // self-optimization: data removal
	OpScale      Op = "scale"       // self-configuration: pool resize
	OpViolation  Op = "violation"   // security: policy violation detected
	OpBlock      Op = "block"       // security: client blocked
	OpUnblock    Op = "unblock"     // security: client unblocked
	OpThrottle   Op = "throttle"    // security: client throttled
	OpAuthFail   Op = "auth_fail"   // gateway: authentication failure
	OpCPULoad    Op = "cpu_load"    // physical parameter sample
	OpMemUsage   Op = "mem_usage"   // physical parameter sample
	OpDiskSpace  Op = "disk_space"  // provider storage space sample
	OpActiveConn Op = "active_conn" // provider concurrent transfer count
	OpPin        Op = "pin"         // gc: version pinned by a reader
	OpRetire     Op = "retire"      // gc: version retired by retention
	OpSweep      Op = "sweep"       // gc: mark-and-sweep chunk reclaim
	OpMark       Op = "mark"        // gc: one mark phase (Value nodes read, Offset BLOBs walked, Bytes BLOBs reused)
)

// Actor names used in events.
const (
	ActorClient       = "client"
	ActorProvider     = "provider"
	ActorMetaProvider = "metadata"
	ActorPManager     = "pmanager"
	ActorVManager     = "vmanager"
	ActorSecurity     = "security"
	ActorSelfConfig   = "selfconfig"
	ActorSelfOpt      = "selfopt"
	ActorGateway      = "gateway"
	ActorGC           = "gc"
)

// Event is a single instrumentation record. The zero value of optional
// fields (User, Blob, …) means "not applicable".
type Event struct {
	Time    time.Time
	Actor   string // which actor type produced the event
	Node    string // node (process) identifier
	User    string // client identity, when the op is user-attributable
	Op      Op
	Blob    uint64
	Version uint64
	Offset  int64
	Bytes   int64
	Dur     time.Duration
	Err     string  // non-empty on failure
	Value   float64 // generic numeric payload (load, space, …)
}

// OK reports whether the event describes a successful operation.
func (e Event) OK() bool { return e.Err == "" }

// Emitter receives instrumentation events. Implementations must be safe
// for concurrent use and must not block for long: actors emit on their
// hot paths (the paper's experiments show the instrumentation layer must
// stay minimally intrusive).
type Emitter interface {
	Emit(Event)
}

// Nop discards all events; it is the emitter used when monitoring is
// disabled (the "without introspection" configuration of EXP-B).
type Nop struct{}

// Emit discards the event.
func (Nop) Emit(Event) {}

// Tap fans events out to several emitters.
type Tap struct {
	mu   sync.RWMutex
	subs []Emitter
}

// NewTap returns a Tap forwarding to the given emitters.
func NewTap(subs ...Emitter) *Tap {
	t := &Tap{}
	for _, s := range subs {
		if s != nil {
			t.subs = append(t.subs, s)
		}
	}
	return t
}

// Attach adds another downstream emitter.
func (t *Tap) Attach(e Emitter) {
	if e == nil {
		return
	}
	t.mu.Lock()
	t.subs = append(t.subs, e)
	t.mu.Unlock()
}

// Emit forwards the event to every attached emitter.
func (t *Tap) Emit(ev Event) {
	t.mu.RLock()
	subs := t.subs
	t.mu.RUnlock()
	for _, s := range subs {
		s.Emit(ev)
	}
}

// Recorder stores every event; it is meant for tests and small tools.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Filter returns recorded events matching the predicate.
func (r *Recorder) Filter(keep func(Event) bool) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, ev := range r.events {
		if keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// Counts tallies events per operation, a cheap always-on emitter.
type Counts struct {
	mu sync.Mutex
	m  map[Op]int64
}

// NewCounts returns an empty tally.
func NewCounts() *Counts { return &Counts{m: make(map[Op]int64)} }

// Emit increments the tally for the event's op.
func (c *Counts) Emit(ev Event) {
	c.mu.Lock()
	c.m[ev.Op]++
	c.mu.Unlock()
}

// Get returns the count for one op.
func (c *Counts) Get(op Op) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[op]
}

// Snapshot returns a copy of all counts.
func (c *Counts) Snapshot() map[Op]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[Op]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Func adapts a function to the Emitter interface.
type Func func(Event)

// Emit calls the function.
func (f Func) Emit(ev Event) { f(ev) }
