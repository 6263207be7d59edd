// Package faultdom is the fault-tolerance layer of the distributed
// plane: error classification (transient vs permanent), retry policies
// with jittered exponential backoff, and one health record per
// provider, alive or dead, in which a streak of consecutive transient
// failures marks the provider dead and any contact revives it.
// Classification and retries stand alone — rpc-plane callers can use a
// RetryPolicy by itself — but every core.Cluster builds a Plane
// (plane.go) and guards every client↔provider conversation with it:
// dead-provider fast-fail with one probe per cooldown, per-attempt
// deadlines, retries on transient failures, and passive health
// observation feeding placement and self-optimization. The control
// plane (gc, selfopt) reaches providers unguarded.
package faultdom

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"syscall"
	"time"
)

// Class is the retry classification of an error.
type Class int

const (
	// Permanent errors carry an application-level answer (not found,
	// lease conflict, policy denial): the provider is reachable and
	// responding, so retrying the same call cannot help.
	Permanent Class = iota
	// Transient errors are infrastructure failures — refused or reset
	// connections, i/o timeouts, a shut-down rpc conn — where the same
	// call may well succeed on a retry or on another replica.
	Transient
)

// Transienter lets an error self-classify: fault-injection wrappers and
// transport errors implement it so Classify does not need to enumerate
// every error value in the module.
type Transienter interface {
	Transient() bool
}

// Classify sorts an error into Transient or Permanent. nil is
// Permanent (there is nothing to retry). Unknown errors default to
// Permanent: retrying what we do not understand turns one failure into
// several, and the replica failover path is the safety net.
func Classify(err error) Class {
	if err == nil {
		return Permanent
	}
	var tr Transienter
	if errors.As(err, &tr) {
		if tr.Transient() {
			return Transient
		}
		return Permanent
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// An expired attempt deadline says nothing final about the
		// provider; the caller's parent context decides when to stop.
		return Transient
	}
	if errors.Is(err, context.Canceled) {
		return Permanent
	}
	var ne net.Error
	if errors.As(err, &ne) {
		// Every net.Error from the transport — timeouts and connection
		// failures alike — is worth another attempt or another replica.
		return Transient
	}
	switch {
	case errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE):
		return Transient
	}
	return Permanent
}

// Sleep blocks for d or until ctx is done, whichever comes first, and
// returns ctx's error in the latter case. It is the backoff primitive of
// the retry loop — blockfacts knows it may block, so holding a mutex
// across a retry loop is diagnosed by lockio.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RetryPolicy retries transient failures with jittered exponential
// backoff. The zero value is usable: Do fills defaults (3 attempts,
// 10ms base doubling to a 1s cap, half the delay jittered).
type RetryPolicy struct {
	MaxAttempts int           // total attempts, first try included (default 3; 1 = no retry)
	BaseDelay   time.Duration // delay after the first failure (default 10ms)
	MaxDelay    time.Duration // backoff cap (default 1s)
	Multiplier  float64       // backoff growth per attempt (default 2)
	Jitter      float64       // fraction of each delay randomized, in (0,1] (default 0.5)

	// Rand draws the jitter sample in [0,1); nil uses the global
	// math/rand source. Tests inject a seeded source for determinism.
	Rand func() float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter <= 0 || p.Jitter > 1 {
		p.Jitter = 0.5
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// delay returns the backoff before attempt n+1, for n ≥ 1 failures so
// far: base·multiplier^(n-1) capped at MaxDelay, with the configured
// fraction of it jittered away so synchronized clients desynchronize.
func (p RetryPolicy) delay(n int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d = d*(1-p.Jitter) + d*p.Jitter*p.Rand()
	}
	return time.Duration(d)
}

// Do runs op until it succeeds, fails permanently, exhausts the
// attempt budget, or the context is done. The last error is returned.
func (p RetryPolicy) Do(ctx context.Context, op func(context.Context) error) error {
	return p.DoNotify(ctx, nil, op)
}

// DoNotify is Do with a retry callback: notify is invoked before each
// re-attempt with the 1-based number of the attempt that just failed
// and its error (metrics count retries through it).
func (p RetryPolicy) DoNotify(ctx context.Context, notify func(attempt int, err error), op func(context.Context) error) error {
	p = p.withDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		err = op(ctx)
		if err == nil || Classify(err) == Permanent {
			return err
		}
		if attempt >= p.MaxAttempts || ctx.Err() != nil {
			return err
		}
		if notify != nil {
			notify(attempt, err)
		}
		if serr := Sleep(ctx, p.delay(attempt)); serr != nil {
			return err
		}
	}
}
