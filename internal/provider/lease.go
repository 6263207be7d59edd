package provider

import (
	"context"
	"errors"
	"sync"
	"time"

	"blobseer/internal/chunk"
)

// DefaultLeaseTTL is the writer-lease lifetime applied when a caller
// registers a lease without one. Writers heartbeat at a fraction of the
// TTL, so the default only matters for clients that stop renewing.
const DefaultLeaseTTL = 30 * time.Second

// ErrNoLease reports a lease operation without a lease identity.
var ErrNoLease = errors.New("provider: empty lease id")

// leaseRec is one lease's mutable state inside the table.
type leaseRec struct {
	expires time.Time
	chunks  map[chunk.ID]struct{}
}

// leaseTable holds a provider's writer leases and orders lease
// registration against in-flight wholesale purges. The ordering rule
// closes the re-put-vs-purge race without holding the table lock across
// store I/O: a purge first checks the ID against live leases, then
// registers it as in flight, runs the store purge unlocked, and
// deregisters; LeaseChunks blocks while any of its IDs has a purge in
// flight. A writer's lease therefore either lands before the purge's
// check (the purge skips the chunk) or returns only after the purge
// completed — and the writer's subsequent Store recreates the chunk.
type leaseTable struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast when an in-flight purge finishes
	rec     map[string]*leaseRec
	purging map[chunk.ID]int // IDs with a wholesale purge in flight
}

func (lt *leaseTable) init() {
	lt.cond = sync.NewCond(&lt.mu)
	lt.rec = make(map[string]*leaseRec)
	lt.purging = make(map[chunk.ID]int)
}

// upsert registers or renews lease id: the expiry is replaced and ids
// are attached on top of whatever the lease already protects (a nil ids
// is a pure heartbeat). Registration waits out in-flight purges of the
// attached IDs (see the type comment).
func (lt *leaseTable) upsert(id string, expires time.Time, ids []chunk.ID) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for lt.anyPurging(ids) {
		lt.cond.Wait()
	}
	r, ok := lt.rec[id]
	if !ok {
		r = &leaseRec{chunks: make(map[chunk.ID]struct{})}
		lt.rec[id] = r
	}
	r.expires = expires
	for _, c := range ids {
		r.chunks[c] = struct{}{}
	}
}

func (lt *leaseTable) anyPurging(ids []chunk.ID) bool {
	for _, c := range ids {
		if lt.purging[c] > 0 {
			return true
		}
	}
	return false
}

// release drops lease id; unknown leases are a no-op (release races TTL
// reaping by design).
func (lt *leaseTable) release(id string) {
	lt.mu.Lock()
	delete(lt.rec, id)
	lt.mu.Unlock()
}

// expire drops every lease that expired before now: a writer that
// stopped heartbeating is dead, and its record protects nothing.
func (lt *leaseTable) expire(now time.Time) {
	lt.mu.Lock()
	for id, r := range lt.rec {
		if now.After(r.expires) {
			delete(lt.rec, id)
		}
	}
	lt.mu.Unlock()
}

// leasedLocked reports whether a live (non-expired) lease protects id.
// Caller holds lt.mu.
func (lt *leaseTable) leasedLocked(id chunk.ID, now time.Time) bool {
	for _, r := range lt.rec {
		if now.After(r.expires) {
			continue
		}
		if _, held := r.chunks[id]; held {
			return true
		}
	}
	return false
}

// purge runs one wholesale chunk purge under the lease ordering rule:
// skipped (0, nil) when a live lease protects id, otherwise the store
// purge runs with id registered as in flight so a racing lease
// registration waits for its completion. The store I/O itself runs with
// no table lock held.
func (lt *leaseTable) purge(id chunk.ID, now time.Time, del func() (int64, error)) (int64, error) {
	lt.mu.Lock()
	if lt.leasedLocked(id, now) {
		lt.mu.Unlock()
		return 0, nil
	}
	lt.purging[id]++
	lt.mu.Unlock()
	n, err := del()
	lt.mu.Lock()
	lt.purging[id]--
	if lt.purging[id] <= 0 {
		delete(lt.purging, id)
	}
	lt.cond.Broadcast()
	lt.mu.Unlock()
	return n, err
}

// LeaseChunks registers (or renews) writer lease leaseID for ttl from
// now and attaches ids to its protected set; nil ids is a pure
// heartbeat. While the lease lives, PurgeChunks skips its chunks — the
// wholesale reclaim path cannot eat a still-unpublished writer's
// flushed data, however many grace epochs have passed.
func (p *Provider) LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	if err := p.begin(ctx); err != nil {
		return err
	}
	defer p.end()
	if leaseID == "" {
		return ErrNoLease
	}
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	p.leases.upsert(leaseID, p.now().Add(ttl), ids)
	return nil
}

// ReleaseLease drops one writer lease: PurgeChunks may free its chunks
// again. Releasing an unknown lease succeeds (writers race the TTL
// reaper by design).
func (p *Provider) ReleaseLease(ctx context.Context, leaseID string) error {
	if err := p.begin(ctx); err != nil {
		return err
	}
	defer p.end()
	if leaseID == "" {
		return ErrNoLease
	}
	p.leases.release(leaseID)
	return nil
}
