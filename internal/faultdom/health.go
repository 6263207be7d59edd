package faultdom

import (
	"errors"
	"fmt"
	"time"
)

// State is a provider circuit's position.
type State int

const (
	// Closed admits every call (the healthy steady state).
	Closed State = iota
	// HalfOpen admits exactly one probe call; its outcome decides
	// between Closed and Open.
	HalfOpen
	// Open rejects every call until the cooldown elapses.
	Open
)

// String returns the Prometheus-facing label value.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half_open"
	default:
		return "open"
	}
}

// Health is the liveness verdict on one provider.
type Health int

const (
	// Alive: the last contact succeeded (or answered with an
	// application error, which proves reachability just as well).
	Alive Health = iota
	// Suspect: enough consecutive transient failures to deprioritize
	// the provider (reads order it last) but not to write it off.
	Suspect
	// Dead: the failure streak crossed the dead threshold. Placement
	// stops allocating to it and self-optimization heals around it.
	Dead
)

// String returns the Prometheus-facing label value.
func (h Health) String() string {
	switch h {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	default:
		return "dead"
	}
}

// BreakerOpenError is returned without touching the provider when its
// circuit is open: the caller should fail over to another replica (the
// s3 gateway maps it to a retryable 503).
type BreakerOpenError struct {
	Provider string
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("faultdom: circuit open for provider %s", e.Provider)
}

// IsBreakerOpen reports whether err is (or wraps) a breaker rejection.
func IsBreakerOpen(err error) bool {
	var be *BreakerOpenError
	return errors.As(err, &be)
}

// health is one provider's record. One streak of consecutive transient
// failures drives two machines:
//
//   - the circuit: Closed → Open once the streak reaches
//     BreakerThreshold; Open → HalfOpen when a call arrives after the
//     cooldown (it becomes the single probe); HalfOpen → Closed on a
//     successful probe, back to Open on a failed one;
//   - the verdict: Suspect at SuspectAfter, Dead at DeadAfter.
//
// A success or a permanent (application) error is contact — a provider
// answering "not found" is alive — and resets both. Counting failures
// instead of elapsed time keeps verdicts deterministic under test
// clocks and immune to idle gaps: a provider nobody talks to stays
// Alive until contact actually fails.
type health struct {
	fails    int
	circuit  State
	verdict  Health
	openedAt time.Time
	probing  bool // half-open: the single probe slot is taken
}

// recLocked returns id's record, creating it Closed and Alive.
func (p *Plane) recLocked(id string) *health {
	h, ok := p.peers[id]
	if !ok {
		h = &health{}
		p.peers[id] = h
	}
	return h
}

// get returns a copy of id's record (the zero record, Closed and
// Alive, when untracked).
func (p *Plane) get(id string) health {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h, ok := p.peers[id]; ok {
		return *h
	}
	return health{}
}

// rejecting reports whether a call right now would be rejected without
// taking the half-open probe slot: while Open with the cooldown
// unelapsed, or while a probe is already in flight.
func (p *Plane) rejecting(h health) bool {
	switch h.circuit {
	case Open:
		return p.cfg.Clock().Sub(h.openedAt) < p.cfg.BreakerCooldown
	case HalfOpen:
		return h.probing
	default:
		return false
	}
}

// allow reports whether a call to id may proceed. In HalfOpen it hands
// out the single probe slot; the caller must report the outcome through
// observe, which releases the slot whatever the outcome.
func (p *Plane) allow(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.recLocked(id)
	if h.circuit == Closed {
		return true
	}
	if p.rejecting(*h) {
		return false
	}
	// Open past its cooldown, or HalfOpen with the slot free: this call
	// is the probe.
	p.setCircuitLocked(id, h, HalfOpen)
	h.probing = true
	return true
}

// observe records one contact outcome against id. Only transient-class
// errors extend the streak; nil and permanent errors reset it.
func (p *Plane) observe(id string, err error) {
	ok := err == nil || Classify(err) == Permanent
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.recLocked(id)
	if h.circuit == HalfOpen {
		h.probing = false
	}
	if ok {
		h.fails = 0
		p.setCircuitLocked(id, h, Closed)
		p.setVerdictLocked(id, h, Alive)
		return
	}
	h.fails++
	if h.circuit == HalfOpen || (h.circuit == Closed && h.fails >= p.cfg.BreakerThreshold) {
		h.openedAt = p.cfg.Clock()
		p.setCircuitLocked(id, h, Open)
	}
	switch {
	case h.fails >= p.cfg.DeadAfter:
		p.setVerdictLocked(id, h, Dead)
	case h.fails >= p.cfg.SuspectAfter:
		p.setVerdictLocked(id, h, Suspect)
	}
}

func (p *Plane) setCircuitLocked(id string, h *health, to State) {
	if h.circuit == to {
		return
	}
	h.circuit = to
	if p.m != nil {
		p.m.breakerState.With(id).Set(float64(to))
		p.m.breakerTrans.With(to.String()).Inc()
	}
}

func (p *Plane) setVerdictLocked(id string, h *health, to Health) {
	if h.verdict == to {
		return
	}
	h.verdict = to
	if p.m != nil {
		p.m.healthTrans.With(to.String()).Inc()
	}
	if to == Dead {
		p.dead = append(p.dead, id)
	}
}
