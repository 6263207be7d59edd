package provider

import (
	"context"
	"errors"
	"slices"
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

// leaseRec is one lease's mutable state inside the table. A live record
// protects its chunks until its TTL passes; a released one (retireAt >
// 0) protects them, whatever its TTL, until the table's epoch reaches
// retireAt.
type leaseRec struct {
	expires  time.Time
	retireAt uint64
	chunks   map[chunk.ID]struct{}
}

// dead reports whether the record protects nothing at (now, epoch).
func (r *leaseRec) dead(now time.Time, epoch uint64) bool {
	if r.retireAt > 0 {
		return epoch >= r.retireAt
	}
	return now.After(r.expires)
}

// leaseTable holds a provider's writer leases and the sweep clock they
// retire by, and orders lease registration against in-flight wholesale
// purges. The clock counts the sweep passes (AdvanceEpoch calls) the
// provider has answered; it lives here, in memory like the leases it
// times, so no store can move it. The ordering rule closes the
// re-put-vs-purge race without holding the table lock across store I/O:
// a purge first checks the ID against live leases, then registers it as
// in flight, runs the store purge unlocked, and deregisters; LeaseChunks
// blocks while any of its IDs has a purge in flight. A writer's lease therefore either lands before the purge's
// check (the purge skips the chunk) or returns only after the purge
// completed — and the writer's subsequent Store recreates the chunk.
type leaseTable struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast when an in-flight purge finishes
	epoch   uint64     // sweep passes answered
	rec     map[string]*leaseRec
	holders map[chunk.ID][]*leaseRec // the records in rec that hold each chunk
	purging map[chunk.ID]int         // IDs with a wholesale purge in flight
}

func (lt *leaseTable) init() {
	lt.cond = sync.NewCond(&lt.mu)
	lt.rec = make(map[string]*leaseRec)
	lt.holders = make(map[chunk.ID][]*leaseRec)
	lt.purging = make(map[chunk.ID]int)
}

// upsert registers or renews lease id: the expiry is replaced and ids
// are attached on top of whatever the lease already protects (a nil ids
// is a pure heartbeat). Registration waits out in-flight purges of the
// attached IDs (see the type comment). A released lease is final: a late
// renewal or Store under its ID changes nothing.
func (lt *leaseTable) upsert(id string, expires time.Time, ids []chunk.ID) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for lt.anyPurging(ids) {
		lt.cond.Wait()
	}
	r, ok := lt.rec[id]
	if ok && r.retireAt > 0 {
		return
	}
	if !ok {
		r = &leaseRec{chunks: make(map[chunk.ID]struct{})}
		lt.rec[id] = r
	}
	r.expires = expires
	for _, c := range ids {
		if _, dup := r.chunks[c]; !dup {
			r.chunks[c] = struct{}{}
			lt.holders[c] = append(lt.holders[c], r)
		}
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

// release retires lease id at the current epoch: its chunks stay
// protected until the epoch has advanced twice more. Unknown or already
// released leases are a no-op (release races TTL reaping by design).
func (lt *leaseTable) release(id string) {
	lt.mu.Lock()
	if r, ok := lt.rec[id]; ok && r.retireAt == 0 {
		r.retireAt = lt.epoch + 2
	}
	lt.mu.Unlock()
}

// advance moves the table to the next epoch and returns it, dropping
// every released lease whose retirement epoch has come and every live
// lease that expired before now: a writer that stopped heartbeating is
// dead, and its record protects nothing.
func (lt *leaseTable) advance(now time.Time) uint64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.epoch++
	for id, r := range lt.rec {
		if !r.dead(now, lt.epoch) {
			continue
		}
		delete(lt.rec, id)
		for c := range r.chunks {
			if hs := slices.DeleteFunc(lt.holders[c], func(h *leaseRec) bool { return h == r }); len(hs) > 0 {
				lt.holders[c] = hs
			} else {
				delete(lt.holders, c)
			}
		}
	}
	return lt.epoch
}

// leasedLocked reports whether a lease protects id at now: a live one
// that has not expired, or a released one not yet retired. Caller holds
// lt.mu.
func (lt *leaseTable) leasedLocked(id chunk.ID, now time.Time) bool {
	for _, r := range lt.holders[id] {
		if !r.dead(now, lt.epoch) {
			return true
		}
	}
	return false
}

// purge runs one wholesale chunk purge under the lease ordering rule:
// skipped (0, nil) when a lease protects id, otherwise the store
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
// flushed data, however many sweep passes run. A released lease ID
// stays released: a late call under it is a no-op.
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

// ReleaseLease retires one writer lease. Its chunks stay protected until
// the provider's epoch has advanced twice past the release; the second
// AdvanceEpoch drops the record. A sweep pass marks before it advances,
// so every pass that could purge a chunk once the lease is gone marked
// after the release, and with it the version the writer published
// before releasing. Releasing an unknown lease succeeds (writers race
// the TTL reaper by design).
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
