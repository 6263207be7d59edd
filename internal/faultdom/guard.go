package faultdom

import (
	"context"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
)

// guardedConn wraps one provider's conn with the plane's full guard:
// dead-provider admission, a per-attempt deadline, in-place retries of
// transient failures, and outcome observation feeding the provider's
// health record.
type guardedConn struct {
	p     *Plane
	id    string
	inner client.Conn
}

// run executes fn under the guard. A rejection is returned as a
// DeadError, which classifies Permanent — the retry loop does not spin
// on it and the caller fails over to another replica at once.
func (g *guardedConn) run(ctx context.Context, op string, fn func(context.Context) error) error {
	attempt := func(ctx context.Context) error {
		ok, probe := g.p.allow(g.id)
		if !ok {
			// Rejected without touching the provider: not an
			// observation, the record is unchanged.
			return &DeadError{Provider: g.id}
		}
		actx, cancel := ctx, context.CancelFunc(nil)
		if g.p.cfg.CallTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, g.p.cfg.CallTimeout)
		}
		err := fn(actx)
		if cancel != nil {
			cancel()
		}
		if err != nil && ctx.Err() != nil {
			// The caller gave up (parent deadline or cancellation):
			// that is not evidence against the provider.
			if probe {
				g.p.release(g.id)
			}
			return err
		}
		g.p.observe(g.id, err, probe)
		return err
	}
	return g.p.cfg.Retry.DoNotify(ctx,
		func(int, error) { g.p.m.retry(op) }, attempt)
}

// Store implements client.Conn.
func (g *guardedConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	return g.run(ctx, "store", func(ctx context.Context) error {
		return g.inner.Store(ctx, user, id, data)
	})
}

// Fetch implements client.Conn. The buffer is the wrapped conn's, handed
// through untouched: only a failed attempt is ever retried and a failed
// attempt returns no buffer, so the caller gets exactly one to own.
func (g *guardedConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	var out []byte
	err := g.run(ctx, "fetch", func(ctx context.Context) error {
		var e error
		out, e = g.inner.Fetch(ctx, user, id)
		return e
	})
	return out, err
}

// LeaseChunks implements client.Conn: lease traffic runs under the same
// guard as the data path.
func (g *guardedConn) LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	return g.run(ctx, "lease", func(ctx context.Context) error {
		return g.inner.LeaseChunks(ctx, leaseID, ttl, ids)
	})
}

// ReleaseLease implements client.Conn.
func (g *guardedConn) ReleaseLease(ctx context.Context, leaseID string) error {
	return g.run(ctx, "release", func(ctx context.Context) error {
		return g.inner.ReleaseLease(ctx, leaseID)
	})
}

var _ client.Conn = (*guardedConn)(nil)
