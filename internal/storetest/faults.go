package storetest

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/provider"
)

// faultErr is the error type of every injected fault. It classifies as
// transient (faultdom.Transienter), so the retry/health plane treats
// injected faults exactly like real infrastructure failures.
type faultErr struct{ msg string }

func (e *faultErr) Error() string   { return e.msg }
func (e *faultErr) Transient() bool { return true }

// Errors the fault wrappers inject. Tests assert against them with
// errors.Is to tell an injected failure from a real one.
var (
	ErrInjected error = &faultErr{msg: "storetest: injected fault"}
	ErrCrashed  error = &faultErr{msg: "storetest: provider crashed"}
)

// Rand is a mutex-wrapped deterministic source shared by the fault
// wrappers: one seed reproduces one interleaving of injected failures,
// however many goroutines draw from it.
type Rand struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewRand returns a deterministic source for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Float64 draws one uniform sample in [0, 1).
func (r *Rand) Float64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Float64()
}

// Int63n draws one uniform sample in [0, n).
func (r *Rand) Int63n(n int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Int63n(n)
}

// Injector decides, per operation, whether a wrapper injects its fault:
// with probability P per call while enabled. One Injector may be shared
// by any number of wrappers, so a single SetEnabled(false) lets a whole
// faulty cluster converge at the end of a hammer.
type Injector struct {
	R   *Rand
	P   float64
	off atomic.Bool
}

// NewInjector returns an enabled injector firing with probability p.
func NewInjector(seed int64, p float64) *Injector {
	return &Injector{R: NewRand(seed), P: p}
}

// SetEnabled flips fault injection on or off.
func (i *Injector) SetEnabled(on bool) { i.off.Store(!on) }

// Enabled reports whether injection is currently on.
func (i *Injector) Enabled() bool { return !i.off.Load() }

// hit reports whether this call should fail.
func (i *Injector) hit() bool {
	return !i.off.Load() && i.R.Float64() < i.P
}

// FlakyConn wraps a client.Conn, failing each operation with the
// injector's probability, lease traffic included: a wrapper must not
// hide leasing, or the writers behind it store unprotected.
type FlakyConn struct {
	Inner client.Conn
	Inj   *Injector
}

// Store implements client.Conn.
func (f *FlakyConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	if f.Inj.hit() {
		return ErrInjected
	}
	return f.Inner.Store(ctx, user, id, data)
}

// Fetch implements client.Conn.
func (f *FlakyConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	if f.Inj.hit() {
		return nil, ErrInjected
	}
	return f.Inner.Fetch(ctx, user, id)
}

// LeaseChunks implements client.Conn (flaky like the data path).
func (f *FlakyConn) LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	if f.Inj.hit() {
		return ErrInjected
	}
	return f.Inner.LeaseChunks(ctx, leaseID, ttl, ids)
}

// ReleaseLease implements client.Conn.
func (f *FlakyConn) ReleaseLease(ctx context.Context, leaseID string) error {
	if f.Inj.hit() {
		return ErrInjected
	}
	return f.Inner.ReleaseLease(ctx, leaseID)
}

// SlowConn wraps a client.Conn, delaying each operation by a uniform
// jitter in [0, MaxDelay) before forwarding. The delay honours ctx: a
// cancelled caller is not held hostage by the injected latency. With an
// Injector attached the delay applies only while injection is enabled,
// so a chaos test can blackhole a provider mid-workload (MaxDelay far
// above every deadline) and later let it recover with one SetEnabled.
type SlowConn struct {
	Inner    client.Conn
	R        *Rand
	MaxDelay time.Duration
	Inj      *Injector // nil = always slow
}

func (s *SlowConn) sleep(ctx context.Context) error {
	if s.MaxDelay <= 0 || (s.Inj != nil && !s.Inj.Enabled()) {
		return ctx.Err()
	}
	d := time.Duration(s.R.Int63n(int64(s.MaxDelay)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Store implements client.Conn.
func (s *SlowConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	if err := s.sleep(ctx); err != nil {
		return err
	}
	return s.Inner.Store(ctx, user, id, data)
}

// Fetch implements client.Conn.
func (s *SlowConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	if err := s.sleep(ctx); err != nil {
		return nil, err
	}
	return s.Inner.Fetch(ctx, user, id)
}

// LeaseChunks implements client.Conn (delayed like the data
// path — exactly the widened lease-vs-purge window the hammer wants).
func (s *SlowConn) LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	if err := s.sleep(ctx); err != nil {
		return err
	}
	return s.Inner.LeaseChunks(ctx, leaseID, ttl, ids)
}

// ReleaseLease implements client.Conn.
func (s *SlowConn) ReleaseLease(ctx context.Context, leaseID string) error {
	if err := s.sleep(ctx); err != nil {
		return err
	}
	return s.Inner.ReleaseLease(ctx, leaseID)
}

// FlakyStore wraps a provider.Store, failing Put/GetAppend/Purge with
// the injector's probability — the provider-side counterpart of
// FlakyConn, pluggable via core.Options.ProviderStore. Listing and the
// accounting stay reliable: a flaky List would make the GC abort every
// pass, which is the fail-safe behaviour other tests cover directly.
type FlakyStore struct {
	provider.Store
	Inj *Injector
}

// Put injects before forwarding.
func (f *FlakyStore) Put(id chunk.ID, data []byte) error {
	if f.Inj.hit() {
		return ErrInjected
	}
	return f.Store.Put(id, data)
}

// GetAppend injects before forwarding.
func (f *FlakyStore) GetAppend(id chunk.ID, dst []byte) ([]byte, error) {
	if f.Inj.hit() {
		return nil, ErrInjected
	}
	return f.Store.GetAppend(id, dst)
}

// Purge injects before forwarding.
func (f *FlakyStore) Purge(id chunk.ID) (int64, error) {
	if f.Inj.hit() {
		return 0, ErrInjected
	}
	return f.Store.Purge(id)
}

// CrashStore wraps a provider.Store behind a crash flag: a
// crashed provider fails every operation (the process is gone), and a
// later Restart brings it back either with its disk state intact or
// wiped empty — the two real recovery shapes (reboot vs replacement
// node). Recovery paths (directory re-resolution, dead-provider probing,
// selfopt re-replication) can then be tested deterministically.
type CrashStore struct {
	// Fresh mints the replacement store for Restart(wipe=true). Leaving
	// it nil restricts Restart to the come-back-with-disk shape.
	Fresh func() provider.Store

	mu      sync.Mutex
	inner   provider.Store
	crashed bool
}

// NewCrashStore wraps inner; fresh (nil ok) supplies wiped replacements.
func NewCrashStore(inner provider.Store, fresh func() provider.Store) *CrashStore {
	return &CrashStore{inner: inner, Fresh: fresh}
}

// Crash takes the provider down: every call fails until Restart.
func (c *CrashStore) Crash() {
	c.mu.Lock()
	c.crashed = true
	c.mu.Unlock()
}

// Restart brings the provider back — wiped empty (wipe=true, a
// replacement node) or with the state it crashed with (a reboot).
func (c *CrashStore) Restart(wipe bool) {
	c.mu.Lock()
	if wipe && c.Fresh != nil {
		c.inner = c.Fresh()
	}
	c.crashed = false
	c.mu.Unlock()
}

// store returns the live inner store, or nil while crashed.
func (c *CrashStore) store() provider.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil
	}
	return c.inner
}

// Put fails while crashed.
func (c *CrashStore) Put(id chunk.ID, data []byte) error {
	st := c.store()
	if st == nil {
		return ErrCrashed
	}
	return st.Put(id, data)
}

// GetAppend fails while crashed.
func (c *CrashStore) GetAppend(id chunk.ID, dst []byte) ([]byte, error) {
	st := c.store()
	if st == nil {
		return nil, ErrCrashed
	}
	return st.GetAppend(id, dst)
}

// Has reports false while crashed (the signature carries no error).
func (c *CrashStore) Has(id chunk.ID) bool {
	st := c.store()
	return st != nil && st.Has(id)
}

// Used reports 0 while crashed.
func (c *CrashStore) Used() int64 {
	st := c.store()
	if st == nil {
		return 0
	}
	return st.Used()
}

// Count reports 0 while crashed.
func (c *CrashStore) Count() int {
	st := c.store()
	if st == nil {
		return 0
	}
	return st.Count()
}

// List returns an empty final page while crashed (the signature carries
// no error; the GC treats an empty inventory fail-safe).
func (c *CrashStore) List(after chunk.ID, limit int) ([]provider.ChunkInfo, bool) {
	st := c.store()
	if st == nil {
		return nil, false
	}
	return st.List(after, limit)
}

// Purge fails while crashed.
func (c *CrashStore) Purge(id chunk.ID) (int64, error) {
	st := c.store()
	if st == nil {
		return 0, ErrCrashed
	}
	return st.Purge(id)
}

// Conformance, one block per contract: a wrapper that drops a method —
// leasing on a Conn, the sweep surface on a Store — stops compiling
// here instead of silently weakening what it wraps.
var (
	_ client.Conn = (*FlakyConn)(nil)
	_ client.Conn = (*SlowConn)(nil)
)

var (
	_ provider.Store = (*FlakyStore)(nil)
	_ provider.Store = (*CrashStore)(nil)
)
