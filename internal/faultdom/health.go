package faultdom

import (
	"errors"
	"fmt"
	"time"
)

// Health is the liveness verdict on one provider.
type Health int

const (
	// Alive: the last contact succeeded (or answered with an
	// application error, which proves reachability just as well), or
	// the failure streak is still below DeadAfter.
	Alive Health = iota
	// Dead: DeadAfter consecutive transient failures. Placement and
	// reads skip the provider, guarded calls are rejected but for one
	// probe per cooldown, and self-optimization heals around it.
	Dead
)

// String returns the Prometheus-facing label value.
func (h Health) String() string {
	if h == Alive {
		return "alive"
	}
	return "dead"
}

// DeadError is returned without touching the provider when it is Dead
// and no probe is due: the caller should fail over to another replica
// (the s3 gateway maps it to a retryable 503).
type DeadError struct {
	Provider string
}

func (e *DeadError) Error() string {
	return fmt.Sprintf("faultdom: provider %s is dead, call rejected", e.Provider)
}

// IsDead reports whether err is (or wraps) a dead-provider rejection.
func IsDead(err error) bool {
	var de *DeadError
	return errors.As(err, &de)
}

// health is one provider's record. A streak of DeadAfter consecutive
// transient failures makes it Dead; a success or a permanent
// (application) error on any path — a guarded call, the probe, a Tick
// ping — is contact, since a provider answering "not found" is alive,
// and makes it Alive again. While Dead, one guarded call per Cooldown
// is let through as the probe; every failure restarts the cooldown.
// Counting failures instead of elapsed time keeps verdicts
// deterministic under test clocks and immune to idle gaps: a provider
// nobody talks to stays Alive until contact actually fails.
type health struct {
	fails   int
	verdict Health
	since   time.Time // last failure or probe admission while Dead
	probing bool      // the probe slot is taken
}

// recLocked returns id's record, creating it Alive.
func (p *Plane) recLocked(id string) *health {
	h, ok := p.peers[id]
	if !ok {
		h = &health{}
		p.peers[id] = h
	}
	return h
}

// get returns a copy of id's record (the zero record, Alive, when
// untracked).
func (p *Plane) get(id string) health {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h, ok := p.peers[id]; ok {
		return *h
	}
	return health{}
}

// rejecting reports whether a call right now would be rejected: the
// provider is Dead and its probe is in flight or not yet due.
func (p *Plane) rejecting(h health) bool {
	return h.verdict == Dead && (h.probing || p.cfg.Clock().Sub(h.since) < p.cfg.Cooldown)
}

// allow reports whether a call to id may proceed and whether it is a
// dead provider's probe. The probe's caller must hand probe back to
// observe, or to release when no outcome was seen, to free the slot.
func (p *Plane) allow(id string) (ok, probe bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.recLocked(id)
	if h.verdict == Alive {
		return true, false
	}
	if p.rejecting(*h) {
		return false, false
	}
	h.probing, h.since = true, p.cfg.Clock()
	return true, true
}

// release frees a probe slot whose call ended with no outcome (its
// caller gave up). The cooldown runs from the probe's admission.
func (p *Plane) release(id string) {
	p.mu.Lock()
	p.recLocked(id).probing = false
	p.mu.Unlock()
}

// observe records one contact outcome against id, releasing the probe
// slot when the call was the probe. Only transient-class errors extend
// the streak; nil and permanent errors end it.
func (p *Plane) observe(id string, err error, probe bool) {
	ok := err == nil || Classify(err) == Permanent
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.recLocked(id)
	if probe {
		h.probing = false
	}
	if ok {
		h.fails = 0
		p.setLocked(id, h, Alive)
		return
	}
	h.fails++
	if h.fails >= p.cfg.DeadAfter {
		h.since = p.cfg.Clock()
		p.setLocked(id, h, Dead)
	}
}

func (p *Plane) setLocked(id string, h *health, to Health) {
	if h.verdict == to {
		return
	}
	h.verdict = to
	if p.m != nil {
		p.m.state.With(id).Set(float64(to))
		p.m.trans.With(to.String()).Inc()
	}
	if to == Dead {
		p.dead = append(p.dead, id)
	}
}
