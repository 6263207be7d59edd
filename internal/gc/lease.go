package gc

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// writerLeaseState is one registered writer lease as the lifecycle
// manager tracks it: which base version it holds against retirement and
// when it expires absent a heartbeat.
type writerLeaseState struct {
	blob, base uint64
	deadline   time.Time
	held       bool // a vmanager HoldVersion is outstanding on (blob, base)
}

// WriterLease is a writer's registration with the lifecycle manager: it
// pins the writer's base version against retention (via the version
// manager's hold) for as long as the lease is renewed, and its ID names
// the per-provider chunk leases the writer registers alongside its
// flushes. It implements client.Lease; BlobWriter owns exactly one and
// releases it at Close/abandon. A lease that stops renewing expires
// after the TTL and is reaped at the next sweep — a crashed gateway
// cannot pin a base version or its chunks forever.
type WriterLease struct {
	m          *Manager
	id         string
	blob, base uint64
	released   atomic.Bool
}

// ID returns the lease identity, shared with the provider-side chunk
// leases registered under it.
func (l *WriterLease) ID() string { return l.id }

// TTL returns the manager's lease lifetime: the writer requests it for
// its provider chunk leases and heartbeats at a fraction of it.
func (l *WriterLease) TTL() time.Duration { return l.m.leaseTTL }

// Renew pushes the expiry one TTL out. If a stalled heartbeat let the
// sweep reap the lease in the meantime, Renew re-registers it —
// re-holding the base version when it still exists (when retention got
// to it first, the writer's partial-slot merges will surface the loss;
// the lease still protects the chunks it names). Renew after Release is
// a no-op, so a late heartbeat tick cannot resurrect a closed writer's
// lease.
func (l *WriterLease) Renew() {
	if l.released.Load() {
		return
	}
	m := l.m
	m.leaseMu.Lock()
	if st, ok := m.leases[l.id]; ok {
		st.deadline = m.now().Add(m.leaseTTL)
		m.leaseMu.Unlock()
		return
	}
	st := &writerLeaseState{blob: l.blob, base: l.base, deadline: m.now().Add(m.leaseTTL)}
	if l.base > 0 {
		if err := m.vm.HoldVersion(l.blob, l.base); err == nil {
			st.held = true
		}
	}
	m.leases[l.id] = st
	m.leasesActive.Set(float64(len(m.leases)))
	m.leaseMu.Unlock()
}

// Release ends the lease: the base-version hold is dropped and the ID
// disappears from the active table. Idempotent; releasing a lease the
// sweep already reaped succeeds.
func (l *WriterLease) Release() {
	if l.released.Swap(true) {
		return
	}
	l.m.dropLease(l.id)
}

// WithLeaseTTL sets how long a writer lease lives without a heartbeat
// (default provider.DefaultLeaseTTL). Writers renew at a fraction of
// the TTL; the TTL only decides how fast a crashed writer's
// protections lapse.
func WithLeaseTTL(d time.Duration) Option {
	return func(m *Manager) {
		if d > 0 {
			m.leaseTTL = d
		}
	}
}

// OpenWriterLease registers a writer lease over blob, holding published
// version base against retention for the lease's lifetime (base 0 — a
// fresh blob — holds nothing). The returned lease's ID is what the
// writer passes to the providers' chunk-lease registrations, so one
// identity covers both planes. The caller owns the lease and must
// Release it on every path, or let the TTL reap it.
//
// The hold is taken before the lease is registered: HoldVersion is
// atomic against RetireVersions, so either the hold lands and retention
// skips the base from then on, or the base was already retired and the
// open fails — there is no window where a registered lease's base can
// be retired out from under it.
func (m *Manager) OpenWriterLease(blob, base uint64) (*WriterLease, error) {
	held := false
	if base > 0 {
		if err := m.vm.HoldVersion(blob, base); err != nil {
			return nil, fmt.Errorf("gc: lease blob %d base v%d: %w", blob, base, err)
		}
		held = true
	}
	m.leaseMu.Lock()
	m.leaseSeq++
	id := fmt.Sprintf("wl-%s-%d", m.leaseNonce, m.leaseSeq)
	m.leases[id] = &writerLeaseState{
		blob: blob, base: base,
		deadline: m.now().Add(m.leaseTTL),
		held:     held,
	}
	m.leasesActive.Set(float64(len(m.leases)))
	m.leaseMu.Unlock()
	return &WriterLease{m: m, id: id, blob: blob, base: base}, nil
}

// dropLease removes one lease record and releases its base hold. The
// hold release happens outside leaseMu (vmanager has its own lock).
func (m *Manager) dropLease(id string) {
	m.leaseMu.Lock()
	st, ok := m.leases[id]
	if ok {
		delete(m.leases, id)
		m.leasesActive.Set(float64(len(m.leases)))
	}
	m.leaseMu.Unlock()
	if ok && st.held {
		m.vm.ReleaseVersion(st.blob, st.base)
	}
}

// reapWriterLeases drops every expired lease record — a writer that
// stopped heartbeating is dead, and its base hold must not outlive it.
// Called at the start of each non-dry-run sweep; returns how many
// leases were reaped.
func (m *Manager) reapWriterLeases() int {
	now := m.now()
	var reaped []*writerLeaseState
	m.leaseMu.Lock()
	for id, st := range m.leases {
		if now.After(st.deadline) {
			delete(m.leases, id)
			reaped = append(reaped, st)
		}
	}
	if len(reaped) > 0 {
		m.leasesActive.Set(float64(len(m.leases)))
	}
	m.leaseMu.Unlock()
	for _, st := range reaped {
		if st.held {
			m.vm.ReleaseVersion(st.blob, st.base)
		}
	}
	m.leasesReaped.Add(int64(len(reaped)))
	return len(reaped)
}

// newLeaseNonce returns the per-manager lease-ID prefix. Randomness
// makes lease IDs unique across processes, so a gateway's leases and a
// GC runner's never collide at a shared provider.
func newLeaseNonce() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "local"
	}
	return hex.EncodeToString(b[:])
}
