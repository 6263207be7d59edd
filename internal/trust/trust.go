// Package trust implements the paper's Trust management direction: a
// per-user trust value computed from past actions and the real-time
// system state, enabling adaptive security policies (the trust()
// aggregator of the policy language).
//
// Trust lives in [0,1]. Violations lower it multiplicatively, scaled by
// severity; clean elapsed time recovers it toward 1 with a configurable
// half-life, so repeat offenders are caught by ever-stricter thresholds
// while one-off offenders eventually rehabilitate.
package trust

import (
	"math"
	"sort"
	"sync"
	"time"

	"blobseer/internal/policy"
)

// Default dynamics.
const (
	DefaultRecoveryHalfLife = 10 * time.Minute

	// Per-severity penalties: the fraction of current trust one
	// violation removes.
	penLow, penMed, penHigh = 0.10, 0.30, 0.60
)

// Manager tracks trust values. It implements policy.TrustSource.
type Manager struct {
	mu       sync.Mutex
	now      func() time.Time
	halfLife time.Duration
	vals     map[string]*state
}

type state struct {
	value float64
	asOf  time.Time
}

// Option configures a Manager.
type Option func(*Manager)

// WithClock overrides the time source.
func WithClock(now func() time.Time) Option {
	return func(m *Manager) {
		if now != nil {
			m.now = now
		}
	}
}

// WithRecoveryHalfLife tunes how fast distrust decays.
func WithRecoveryHalfLife(d time.Duration) Option {
	return func(m *Manager) {
		if d > 0 {
			m.halfLife = d
		}
	}
}

// New returns a manager where everyone starts fully trusted.
func New(opts ...Option) *Manager {
	m := &Manager{
		now:      time.Now,
		halfLife: DefaultRecoveryHalfLife,
		vals:     make(map[string]*state),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Value implements policy.TrustSource: the user's current trust with
// recovery applied up to now. Unknown users have full trust.
func (m *Manager) Value(user string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.vals[user]
	if !ok {
		return 1
	}
	return m.recovered(st, m.now())
}

func (m *Manager) recovered(st *state, now time.Time) float64 {
	dt := now.Sub(st.asOf)
	if dt <= 0 {
		return st.value
	}
	// distrust = 1-value halves every halfLife
	w := math.Exp2(-float64(dt) / float64(m.halfLife))
	return 1 - (1-st.value)*w
}

// OnViolation lowers the user's trust according to severity.
func (m *Manager) OnViolation(user string, sev policy.Severity, at time.Time) {
	pen := penMed
	switch sev {
	case policy.Low:
		pen = penLow
	case policy.High:
		pen = penHigh
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.vals[user]
	if !ok {
		st = &state{value: 1, asOf: at}
		m.vals[user] = st
	}
	v := m.recovered(st, at)
	st.value = v * (1 - pen)
	st.asOf = at
}

// Set forces a trust value (administrative override, tests).
func (m *Manager) Set(user string, v float64, at time.Time) {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	m.mu.Lock()
	m.vals[user] = &state{value: v, asOf: at}
	m.mu.Unlock()
}

// Users returns tracked users sorted by ascending trust.
func (m *Manager) Users() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	type uv struct {
		u string
		v float64
	}
	all := make([]uv, 0, len(m.vals))
	for u, st := range m.vals {
		all = append(all, uv{u, m.recovered(st, now)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v < all[j].v
		}
		return all[i].u < all[j].u
	})
	out := make([]string, len(all))
	for i, x := range all {
		out[i] = x.u
	}
	return out
}

// Sink is a policy.ActionSink decorator that updates trust on every
// violation before delegating to the wrapped sink, closing the loop
// between detection and adaptive policies.
type Sink struct {
	Inner policy.ActionSink
	Trust *Manager
}

// Log implements policy.ActionSink.
func (s Sink) Log(v policy.Violation) {
	s.Trust.OnViolation(v.User, v.Severity, v.Time)
	s.Inner.Log(v)
}

// Alert implements policy.ActionSink.
func (s Sink) Alert(v policy.Violation) {
	s.Trust.OnViolation(v.User, v.Severity, v.Time)
	s.Inner.Alert(v)
}

// Block implements policy.ActionSink.
func (s Sink) Block(user string, d time.Duration, v policy.Violation) {
	s.Trust.OnViolation(user, v.Severity, v.Time)
	s.Inner.Block(user, d, v)
}

// Throttle implements policy.ActionSink.
func (s Sink) Throttle(user string, rps float64, v policy.Violation) {
	s.Trust.OnViolation(user, v.Severity, v.Time)
	s.Inner.Throttle(user, rps, v)
}

// Quarantine implements policy.ActionSink.
func (s Sink) Quarantine(user string, v policy.Violation) {
	s.Trust.OnViolation(user, v.Severity, v.Time)
	s.Inner.Quarantine(user, v)
}
