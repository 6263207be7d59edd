package gc_test

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/core"
	"blobseer/internal/gc"
	"blobseer/internal/instrument"
	"blobseer/internal/monitor"
	"blobseer/internal/provider"
	"blobseer/internal/storetest"
	"blobseer/internal/vmanager"
)

// connSeam is the lease tests' core.Options.WrapConn seam. Unleased, it
// strips the writer's chunk lease from every Store and drops the lease
// calls, so the negative controls show each race manifesting with no
// chunk protection at all. Its switches fail Stores
// (to failOn alone, when set) and cut ReleaseLease off from the
// provider, and it counts the releases sent.
type connSeam struct {
	unleased    bool
	failOn      string
	failStores  atomic.Bool
	partitioned atomic.Bool
	releases    atomic.Int64
}

func (s *connSeam) wrap(id string, conn client.Conn) client.Conn { return seamConn{conn, s, id} }

type seamConn struct {
	client.Conn
	s  *connSeam
	id string
}

func (c seamConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	if c.s.failStores.Load() && (c.s.failOn == "" || c.s.failOn == c.id) {
		return storetest.ErrInjected
	}
	if c.s.unleased {
		ctx = chunk.WithLease(ctx, &chunk.Lease{}) // a lease without an ID is no lease
	}
	return c.Conn.Store(ctx, user, id, data)
}

func (c seamConn) LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	if c.s.unleased {
		return nil
	}
	return c.Conn.LeaseChunks(ctx, leaseID, ttl, ids)
}

func (c seamConn) ReleaseLease(ctx context.Context, leaseID string) error {
	c.s.releases.Add(1)
	switch {
	case c.s.unleased:
		return nil
	case c.s.partitioned.Load():
		return storetest.ErrInjected
	}
	return c.Conn.ReleaseLease(ctx, leaseID)
}

// seamed installs a fresh seam into opts and returns both.
func seamed(opts core.Options, unleased bool) (core.Options, *connSeam) {
	s := &connSeam{unleased: unleased}
	opts.WrapConn = s.wrap
	return opts, s
}

// --- regression 1: stale upload ---------------------------------------

// TestLeaseProtectsUnpublishedWriterPastGrace: a writer that stays open
// across several sweeps keeps its flushed chunks only because its lease
// protects them. The unleased subtest, whose conns carry no chunk lease,
// demonstrates the underlying race the lease closes: the same upload
// loses its chunks and publishes a version that cannot be read back.
func TestLeaseProtectsUnpublishedWriterPastGrace(t *testing.T) {
	run := func(t *testing.T, leases bool) {
		opts, _ := seamed(core.Options{Providers: 2, Monitoring: false}, !leases)
		c := newCluster(t, opts)
		cl := c.Client("alice")
		ctx := context.Background()
		info, err := cl.Create(ctx, 256)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cl.Open(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		w, err := b.NewWriter(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{'x'}, 256)
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "background flush", func() bool { return totalChunks(c) == 1 })

		// Four sweeps: the chunk is unmarked at every one of them, and
		// only the lease keeps it.
		var last gc.SweepReport
		for i := 0; i < 4; i++ {
			last, err = c.GC.Sweep(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
		}

		if !leases {
			if totalChunks(c) != 0 {
				t.Fatalf("without leases the stale upload's chunk must be swept, %d chunks remain", totalChunks(c))
			}
			// The writer publishes a version whose chunk is gone: the
			// upload demonstrably lost data.
			_ = w.Close()
			if got, err := cl.Read(ctx, info.ID, 0, 0, 256); err == nil && bytes.Equal(got, payload) {
				t.Fatal("read succeeded after the chunk was swept — the race did not manifest")
			}
			return
		}

		if last.Swept != 0 || totalChunks(c) != 1 {
			t.Fatalf("sweep #4 = %+v with %d chunks, want Swept 0 and the chunk intact", last, totalChunks(c))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := cl.Read(ctx, info.ID, 0, 0, 256); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read after publish: %v", err)
		}
	}
	t.Run("leased", func(t *testing.T) { run(t, true) })
	t.Run("unleased", func(t *testing.T) { run(t, false) })
}

// --- regression 2: same-content re-put vs in-flight purge ------------

// parkStore parks the first armed Purge between the provider's
// leased-check and the actual deletion, holding the purge in flight
// while the test re-puts the same content.
type parkStore struct {
	provider.Store
	armed   *atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (ps *parkStore) Purge(id chunk.ID) (int64, error) {
	if ps.armed.CompareAndSwap(true, false) {
		close(ps.entered)
		<-ps.release
	}
	return ps.Store.Purge(id)
}

// TestLeaseBlocksPurgeOfReusedChunk: a sweep classifies an orphan chunk
// as a victim; while its purge is in flight a writer re-puts the same
// content (same chunk ID). With leases the writer's chunk-lease
// registration waits out the purge and the subsequent store recreates
// the chunk, so the published version reads back intact. When the conns
// strip the lease, the store lands under the purge and the deletion wins
// after the version published — the read fails.
func TestLeaseBlocksPurgeOfReusedChunk(t *testing.T) {
	run := func(t *testing.T, leases bool) {
		var armed atomic.Bool
		entered := make(chan struct{})
		release := make(chan struct{})
		base := storetest.Factory(t)
		opts, _ := seamed(core.Options{
			Providers: 1, Monitoring: false,
			ProviderStore: func(id string) provider.Store {
				var inner provider.Store
				if base != nil {
					inner = base(id)
				}
				if inner == nil {
					inner = provider.NewMemStore(0)
				}
				return &parkStore{
					Store: inner,
					armed: &armed, entered: entered, release: release,
				}
			},
		}, !leases)
		c := newCluster(t, opts)
		cl := c.Client("alice")
		ctx := context.Background()
		info, err := cl.Create(ctx, 256)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{'r'}, 256)

		// Seed the same content as an unreferenced orphan: the sweep
		// below classifies it as a victim.
		var pp *provider.Provider
		for _, id := range c.Providers() {
			pp, _ = c.Provider(id)
		}
		if err := pp.Store(ctx, "seed", chunk.Sum(payload), payload); err != nil {
			t.Fatal(err)
		}

		armed.Store(true)
		sweepDone := make(chan error, 1)
		go func() {
			_, err := c.GC.Sweep(ctx, false)
			sweepDone <- err
		}()
		<-entered // the orphan's purge is parked in flight from here on

		writerDone := make(chan error, 1)
		go func() {
			writerDone <- func() error {
				b, err := cl.Open(ctx, info.ID)
				if err != nil {
					return err
				}
				w, err := b.NewWriter(ctx, 0)
				if err != nil {
					return err
				}
				if _, err := w.Write(payload); err != nil {
					return err
				}
				return w.Close()
			}()
		}()
		// Give the leased writer time to reach the purging-set barrier
		// (without leases it completes outright — that is the race).
		time.Sleep(50 * time.Millisecond)
		close(release)

		if err := <-writerDone; err != nil {
			t.Fatalf("writer: %v", err)
		}
		if err := <-sweepDone; err != nil {
			t.Fatalf("sweep: %v", err)
		}

		got, err := cl.Read(ctx, info.ID, 0, 0, 256)
		if leases {
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("read after re-put vs purge: %v", err)
			}
			return
		}
		if err == nil && bytes.Equal(got, payload) {
			t.Fatal("unleased re-put survived the in-flight purge — the race did not manifest")
		}
	}
	t.Run("leased", func(t *testing.T) { run(t, true) })
	t.Run("unleased", func(t *testing.T) { run(t, false) })
}

// --- regression 3: base version retired mid-stream -------------------

// TestLeaseHoldsBaseVersionAgainstRetention: a writer opened against
// base v1 holds that version; a concurrent publish plus KeepLast:1
// retention would otherwise retire v1 mid-stream and sweep the very chunk
// the writer's partial slot 0 must merge against. With the hold
// retention skips the base (Held) and the merge reads it intact; when the
// hold is dropped right after open, v1 is retired and the writer's edge
// merge demonstrably breaks.
func TestLeaseHoldsBaseVersionAgainstRetention(t *testing.T) {
	run := func(t *testing.T, leases bool) {
		c := newCluster(t, core.Options{Providers: 2, Monitoring: false})
		cl := c.Client("alice")
		ctx := context.Background()
		info, err := cl.Create(ctx, 256)
		if err != nil {
			t.Fatal(err)
		}
		// v1: the base content the writer's partial slot merges against.
		baseData := bytes.Repeat([]byte{'A'}, 256)
		if _, err := cl.Write(ctx, info.ID, 0, baseData); err != nil {
			t.Fatal(err)
		}
		if err := c.VM.SetRetention(info.ID, vmanager.Retention{KeepLast: 1}); err != nil {
			t.Fatal(err)
		}

		// Writer opens mid-chunk against base v1 and holds it; the
		// negative control drops that hold at once.
		b, err := cl.Open(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		w, err := b.NewWriter(ctx, 128)
		if err != nil {
			t.Fatal(err)
		}
		if !leases {
			c.VM.ReleaseVersion(info.ID, 1)
		}

		// v2 publishes while the writer streams: v1 is now a retention
		// candidate under KeepLast:1.
		if _, err := cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte{'B'}, 256)); err != nil {
			t.Fatal(err)
		}
		rrep, err := c.GC.EnforceRetention(ctx, t0)
		if err != nil {
			t.Fatal(err)
		}
		if leases {
			if rrep.Held != 1 || rrep.Retired != 0 {
				t.Fatalf("retention vs held base = %+v, want Held 1 Retired 0", rrep)
			}
		} else if rrep.Retired == 0 {
			t.Fatalf("retention without leases = %+v, want the base retired", rrep)
		}
		// Sweeps reclaim whatever retirement unreferenced.
		for i := 0; i < 2; i++ {
			if _, err := c.GC.Sweep(ctx, false); err != nil {
				t.Fatal(err)
			}
		}

		// The writer finishes: slot 0 merges bytes 0..128 from base v1.
		_, werr := w.Write(bytes.Repeat([]byte{'C'}, 128))
		cerr := w.Close()
		want := append(bytes.Repeat([]byte{'A'}, 128), bytes.Repeat([]byte{'C'}, 128)...)
		got, rerr := cl.Read(ctx, info.ID, 0, 0, 256)

		if leases {
			if werr != nil || cerr != nil || rerr != nil || !bytes.Equal(got, want) {
				t.Fatalf("leased mid-stream merge: write=%v close=%v read=%v", werr, cerr, rerr)
			}
			return
		}
		if werr == nil && cerr == nil && rerr == nil && bytes.Equal(got, want) {
			t.Fatal("unleased writer merged against a retired base — the race did not manifest")
		}
	}
	t.Run("leased", func(t *testing.T) { run(t, true) })
	t.Run("unleased", func(t *testing.T) { run(t, false) })
}

// --- a release between a pass's mark and its purge ------------------

// midPass is the cluster's provider plane with a hook, armed by arm,
// that runs once at the next AdvanceEpoch call: after a sweep's mark,
// before it advances the epoch and purges. A release there precedes the
// pass's own advance, so a lease retired at the first advance after its
// release would be gone at this pass's purge. Concurrent advances wait
// for the hook to finish.
type midPass struct {
	c    *core.Cluster
	mu   sync.Mutex
	hook func()
}

func (mp *midPass) arm(hook func()) {
	mp.mu.Lock()
	mp.hook = hook
	mp.mu.Unlock()
}

func (mp *midPass) IDs() []string { return mp.c.Providers() }

func (mp *midPass) Provider(ctx context.Context, id string) (provider.API, error) {
	p, err := mp.c.Pool().Provider(ctx, id)
	return hookedAdvance{p, mp}, err
}

type hookedAdvance struct {
	provider.API
	mp *midPass
}

func (h hookedAdvance) AdvanceEpoch(ctx context.Context) (uint64, error) {
	h.mp.mu.Lock()
	if hook := h.mp.hook; hook != nil {
		h.mp.hook = nil
		hook()
	}
	h.mp.mu.Unlock()
	return h.API.AdvanceEpoch(ctx)
}

// TestLeaseCoversWriterPublishedAfterMark: a writer stores its chunk
// under a lease, a sweep marks before the writer publishes, and the
// writer then publishes and releases its lease before that sweep
// advances the provider's epoch and purges. The chunk is not marked at its purge; the
// released lease must still protect it, since the pass's mark never saw
// the version. A fresh upload flushes just before that pass; a stale one
// three passes earlier, so no window keyed to its store time could
// cover it. Both must read back after that pass and after three more.
func TestLeaseCoversWriterPublishedAfterMark(t *testing.T) {
	run := func(t *testing.T, stalePasses int) {
		c := newCluster(t, core.Options{Providers: 1, Monitoring: false})
		cl := c.Client("alice")
		ctx := context.Background()
		info, err := cl.Create(ctx, 256)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cl.Open(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		w, err := b.NewWriter(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{'g'}, 256)
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "background flush", func() bool { return totalChunks(c) == 1 })

		plane := &midPass{c: c}
		m := gc.New(c.VM, plane)
		sweep := func(what string) gc.SweepReport {
			t.Helper()
			rep, err := m.Sweep(ctx, false)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			return rep
		}
		for i := 0; i < stalePasses; i++ {
			if rep := sweep("pass before Close"); rep.Swept != 0 {
				t.Fatalf("pass %d before Close = %+v: the open writer's chunk was swept", i, rep)
			}
		}
		plane.arm(func() {
			if err := w.Close(); err != nil {
				t.Error(err)
			}
		})
		rep := sweep("pass with Close inside")
		if rep.Live != 0 {
			t.Fatalf("sweep = %+v: the chunk must not be marked", rep)
		}
		if got, err := cl.Read(ctx, info.ID, 0, 0, 256); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("pass with Close inside = %+v; read of the published version: %v", rep, err)
		}
		for i := 0; i < 3; i++ {
			sweep("pass after Close")
		}
		if got, err := cl.Read(ctx, info.ID, 0, 0, 256); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read after three more passes: %v", err)
		}
	}
	t.Run("fresh", func(t *testing.T) { run(t, 0) })
	t.Run("stale", func(t *testing.T) { run(t, 3) })
}

// TestLeaseCoversRepairAfterMark: a version is published after a pass's
// mark, one of its chunk's two replicas goes down, and a heal copies the
// chunk to a new target and publishes a repair version naming it — all
// before that pass purges the new target. Neither version was marked, so
// only the repair's own chunk lease keeps the new copy. Every provider
// the repair version names must still hold the chunk after the pass.
func TestLeaseCoversRepairAfterMark(t *testing.T) {
	c := newCluster(t, core.Options{Providers: 3, Replicas: 2, Monitoring: false})
	cl := c.Client("alice")
	ctx := context.Background()
	info, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.Open(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.NewWriter(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'h'}, 256)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	id := chunk.Sum(payload)
	waitFor(t, "background flush", func() bool { return totalChunks(c) == 2 })

	plane := &midPass{c: c}
	plane.arm(func() {
		if err := w.Close(); err != nil {
			t.Error(err)
			return
		}
		for _, pid := range c.Providers() {
			if p, _ := c.Provider(pid); p.Has(id) {
				p.Stop()
				break
			}
		}
		if rep, err := c.Heal(ctx, t0); err != nil || rep.Repaired != 1 {
			t.Errorf("heal = %+v, %v; want one chunk repaired", rep, err)
		}
	})
	// The stopped replica fails its share of the pass; the others sweep.
	rep, _ := gc.New(c.VM, plane).Sweep(ctx, false)
	if rep.Live != 0 {
		t.Fatalf("sweep = %+v: the chunk must not be marked", rep)
	}

	latest, err := c.VM.Latest(info.ID)
	if err != nil || latest.Version != 2 {
		t.Fatalf("latest = v%d, %v; want the repair version v2", latest.Version, err)
	}
	tree, err := c.VM.Tree(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var named []string
	if err := tree.Walk(tree.Root(latest.Version, latest.Size), func(_ int64, d chunk.Desc) error {
		named = append(named, d.Providers...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(named) != 2 {
		t.Fatalf("repair version names %v, want two replicas", named)
	}
	for _, pid := range named {
		if p, _ := c.Provider(pid); !p.Has(id) {
			t.Fatalf("provider %s, named by the repair version, lost the chunk (pass %+v)", pid, rep)
		}
	}
	if got, err := cl.Read(ctx, info.ID, 0, 0, 256); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read of the repair version: %v", err)
	}
}

// --- fail-safe: an unreleased chunk lease expires ---------------------

// TestLeaseExpiryReapedBySweep: the one writer protection that can
// outlive its writer is a chunk lease whose release never reached the
// provider. Here the writer's context dies with no Close while
// ReleaseLease is cut off: its base hold is gone at once, its chunk
// stays leased through sweeps, and once the provider's clock passes the
// lease TTL the next pass expires the lease (AdvanceEpoch) and the
// passes after it reclaim the chunk — a partitioned writer cannot pin
// storage forever.
func TestLeaseExpiryReapedBySweep(t *testing.T) {
	var mu sync.Mutex
	now := t0
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	opts, seam := seamed(core.Options{
		Providers: 2, Monitoring: false, Clock: clock,
	}, false)
	c := newCluster(t, opts)
	cl := c.Client("alice")
	ctx := context.Background()
	info, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte{'b'}, 256)); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	b, err := cl.Open(wctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.NewWriter(wctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte{'d'}, 256)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "background flush", func() bool { return totalChunks(c) == 2 })
	// The writer is cut off from its provider and crashes: the context
	// dies, Close never runs, the release is sent and lost.
	seam.partitioned.Store(true)
	sent := seam.releases.Load() // v1's writer released at its Close
	cancel()
	waitFor(t, "release attempt", func() bool { return seam.releases.Load() > sent })
	waitFor(t, "base hold released", func() bool { return len(heldVersions(t, c, info.ID)) == 0 })
	seam.partitioned.Store(false)

	for i := 0; i < 2; i++ {
		rep, err := c.GC.Sweep(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Swept != 0 || totalChunks(c) != 2 {
			t.Fatalf("sweep %d before expiry = %+v, want the leased chunk kept", i, rep)
		}
	}

	advance(provider.DefaultLeaseTTL + time.Second)
	waitFor(t, "abandoned chunk reclaimed", func() bool {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
		return totalChunks(c) == 1
	})
	if got, err := cl.Read(ctx, info.ID, 0, 0, 256); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{'b'}, 256)) {
		t.Fatalf("published base after reclaim: %v", err)
	}
}

// heldVersions lists the versions of blob a version-manager hold
// protects.
func heldVersions(t *testing.T, c *core.Cluster, blob uint64) []uint64 {
	t.Helper()
	_, held, err := c.VM.HeldVersions(blob)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(held))
	for i, v := range held {
		out[i] = v.Version
	}
	return out
}

// purgeAll advances every provider's epoch twice, retiring the leases
// released before it, then purges every chunk and fails unless each
// purge freed its chunk: a chunk lease never released would make the
// provider skip it.
func purgeAll(t *testing.T, c *core.Cluster) {
	t.Helper()
	ctx := context.Background()
	for _, id := range c.Providers() {
		p, _ := c.Provider(id)
		for i := 0; i < 2; i++ {
			if _, err := p.AdvanceEpoch(ctx); err != nil {
				t.Fatal(err)
			}
		}
		infos, _, err := p.ListChunks(ctx, chunk.ID{}, 1024)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]chunk.ID, len(infos))
		for i, ci := range infos {
			ids[i] = ci.ID
		}
		if n, _, err := p.PurgeChunks(ctx, ids); err != nil || n != len(ids) {
			t.Fatalf("%s: purge freed %d of %d chunks (%v): a lease outlived its writer", id, n, len(ids), err)
		}
	}
}

// --- every writer exit releases its protections ----------------------

// TestLeaseWriterExitPaths: a writer holds its base version and leases
// its flushed chunks until it can no longer publish, then releases both,
// whichever way it ends — a Close that published, a Close after a failed
// flush, an append whose ticket Close aborts, or a context that ends with
// no Close at all. Afterwards no hold is left on the BLOB, and once two
// epoch advances have retired the released leases a plain provider purge
// frees every flushed chunk. Chunks go to both providers;
// a failed flush is one whose second replica fails, so its first stays
// behind, leased until the release.
func TestLeaseWriterExitPaths(t *testing.T) {
	base := append(bytes.Repeat([]byte{'a'}, 256), bytes.Repeat([]byte{'b'}, 256)...)
	type exit func(t *testing.T, c *core.Cluster, seam *connSeam, blob uint64)

	// flushed opens a writer at offset 256 over base v1, writes one
	// slot and waits for its store to land.
	flushed := func(ctx context.Context, t *testing.T, c *core.Cluster, blob uint64) *client.BlobWriter {
		t.Helper()
		b, err := c.Client("alice").Open(ctx, blob)
		if err != nil {
			t.Fatal(err)
		}
		w, err := b.NewWriter(ctx, 256)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(bytes.Repeat([]byte{'w'}, 256)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "background flush", func() bool { return totalChunks(c) == 6 })
		if got := heldVersions(t, c, blob); len(got) != 1 || got[0] != 1 {
			t.Fatalf("open writer holds %v, want [1]", got)
		}
		return w
	}
	cases := []struct {
		name string
		run  exit
	}{
		{"close-after-publish", func(t *testing.T, c *core.Cluster, _ *connSeam, blob uint64) {
			w := flushed(context.Background(), t, c, blob)
			if err := w.Close(); err != nil || w.Version() != 2 {
				t.Fatalf("Close = %v, version %d", err, w.Version())
			}
		}},
		{"close-after-failed-flush", func(t *testing.T, c *core.Cluster, seam *connSeam, blob uint64) {
			w := flushed(context.Background(), t, c, blob)
			seam.failStores.Store(true)
			// This Write may already report the failed background flush
			// of the slot it completes; Close must fail either way.
			_, _ = w.Write(bytes.Repeat([]byte{'f'}, 256))
			if err := w.Close(); err == nil {
				t.Fatal("Close published over a failed flush")
			}
		}},
		{"append-aborted", func(t *testing.T, c *core.Cluster, seam *connSeam, blob uint64) {
			seam.failStores.Store(true)
			if _, err := c.Client("alice").Append(context.Background(), blob, bytes.Repeat([]byte{'x'}, 256)); err == nil {
				t.Fatal("Append published with a replica failing")
			}
			seam.failStores.Store(false)
			// The aborted ticket keeps the chain moving: the next write
			// publishes.
			if v, err := c.Client("alice").Write(context.Background(), blob, 0, base); err != nil || v != 3 {
				t.Fatalf("write after aborted append = v%d, %v", v, err)
			}
		}},
		{"cancel-without-close", func(t *testing.T, c *core.Cluster, _ *connSeam, blob uint64) {
			ctx, cancel := context.WithCancel(context.Background())
			flushed(ctx, t, c, blob)
			cancel()
			waitFor(t, "release on cancel", func() bool { return len(heldVersions(t, c, blob)) == 0 })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts, seam := seamed(core.Options{Providers: 2, Replicas: 2, Monitoring: false}, false)
			seam.failOn = "provider001"
			c := newCluster(t, opts)
			cl := c.Client("alice")
			info, err := cl.Create(context.Background(), 256)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Write(context.Background(), info.ID, 0, base); err != nil {
				t.Fatal(err)
			}
			tc.run(t, c, seam, info.ID)
			if got := heldVersions(t, c, info.ID); len(got) != 0 {
				t.Fatalf("holds left after the writer ended: %v", got)
			}
			purgeAll(t, c)
		})
	}
}

// --- cancel racing Close ----------------------------------------------

// TestLeaseCancelRacesClose hammers the one window where the two release
// paths meet: a stale upload (two sweeps between its flush and its Close)
// whose context is cancelled while Close runs. A cancel
// that lands before Close has begun aborts the write; one that lands
// after Close has begun must not release anything before Publish
// returns. Either way the protections are released exactly once: a
// reader's pin on the same base survives the race. Every Close that
// returns nil reads back intact after further sweeps.
func TestLeaseCancelRacesClose(t *testing.T) {
	c := newCluster(t, core.Options{Providers: 2, Monitoring: false})
	cl := c.Client("alice")
	ctx := context.Background()
	base := bytes.Repeat([]byte{'b'}, 512)
	published := 0
	for i := 0; i < 24; i++ {
		info, err := cl.Create(ctx, 256)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(ctx, info.ID, 0, base); err != nil {
			t.Fatal(err)
		}
		if err := c.GC.Pin(info.ID, 1); err != nil {
			t.Fatal(err)
		}
		wctx, cancel := context.WithCancel(ctx)
		b, err := cl.Open(wctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		// Offset 128: both slots are partial and merge against the held
		// base; the first flushes now, the second at Close.
		w, err := b.NewWriter(wctx, 128)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{byte('c' + i)}, 256) // distinct per round
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		slot0 := chunk.Sum(append(append([]byte{}, base[:128]...), payload[:128]...))
		waitFor(t, "background flush", func() bool {
			for _, id := range c.Providers() {
				if p, _ := c.Provider(id); p.Has(slot0) {
					return true
				}
			}
			return false
		})
		for s := 0; s < 2; s++ {
			if _, err := c.GC.Sweep(ctx, false); err != nil {
				t.Fatal(err)
			}
		}

		done := make(chan struct{})
		go func() {
			defer close(done)
			if i%3 != 0 {
				time.Sleep(time.Duration(i%5) * 20 * time.Microsecond)
			}
			cancel()
		}()
		cerr := w.Close()
		<-done

		if got := heldVersions(t, c, info.ID); len(got) != 1 || got[0] != 1 {
			t.Fatalf("round %d: holds after the race = %v, want the reader's [1] alone", i, got)
		}
		c.GC.Unpin(info.ID, 1)
		for s := 0; s < 2; s++ {
			if _, err := c.GC.Sweep(ctx, false); err != nil {
				t.Fatal(err)
			}
		}
		if cerr != nil {
			if v, err := cl.Latest(info.ID); err != nil || v != 1 {
				t.Fatalf("round %d: failed Close (%v) left latest v%d (%v)", i, cerr, v, err)
			}
			continue
		}
		published++
		want := append(append(append([]byte{}, base[:128]...), payload...), base[384:]...)
		if got, err := cl.Read(ctx, info.ID, 0, 0, 512); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: Close returned nil but the read back is %v", i, err)
		}
	}
	t.Logf("%d of 24 Closes published", published)

	for _, id := range c.VM.Blobs() {
		if err := c.GC.DeleteBlob(id); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "convergence", func() bool {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
		return totalChunks(c) == 0 && c.VM.MetaStore().Len() == 0
	})
}

// --- a cancel during Publish releases nothing early ---------------------

// TestLeaseOutlivesCancelDuringPublish pins the invariant the race above
// samples, deterministically: the writer's context is cancelled after
// Close has assigned its version and before it publishes (hooked at the
// version manager's assign record), and a full pass runs right there.
// That pass cannot see the version yet, and the upload is stale, so only
// the chunk lease keeps the flushed chunk; Close must still hold it, and
// the version it publishes must read back.
func TestLeaseOutlivesCancelDuringPublish(t *testing.T) {
	opts, seam := seamed(core.Options{
		Providers: 1, Monitoring: true, AgentBatch: 1,
	}, false)
	c := newCluster(t, opts)
	cl := c.Client("alice")
	ctx := context.Background()
	info, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	b, err := cl.Open(wctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.NewWriter(wctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'p'}, 256)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "background flush", func() bool { return totalChunks(c) == 1 })
	for i := 0; i < 2; i++ {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
	}

	var armed atomic.Bool
	var hooked gc.SweepReport
	armed.Store(true)
	c.Mesh.Subscribe(monitor.SubscriberFunc(func(evs []instrument.Event) {
		for _, ev := range evs {
			if ev.Node != "vmanager" || ev.Op != instrument.OpAssign || ev.Blob != info.ID || !armed.CompareAndSwap(true, false) {
				continue
			}
			cancel()
			// Give a release the cancel might (wrongly) trigger time to
			// reach the provider before the pass purges.
			deadline := time.Now().Add(100 * time.Millisecond)
			for seam.releases.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			rep, err := c.GC.Sweep(ctx, false)
			if err != nil {
				t.Error(err)
			}
			hooked = rep
		}
	}))
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if armed.Load() {
		t.Fatal("the assign hook never ran")
	}
	if hooked.Swept != 0 {
		t.Fatalf("pass during Publish = %+v: it purged the writer's chunk", hooked)
	}
	if got, err := cl.Read(ctx, info.ID, 0, 0, 256); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after a cancel during Publish: %v", err)
	}
}

// --- convergence hammer ----------------------------------------------

// TestLeaseHammerConvergence drives leased writers — publishing,
// failing, and crashing mid-stream — against concurrent sweeps and
// retention under fault injection; leases are the only in-flight
// protection. Once the faults stop and
// every blob is deleted, sweeps must converge providers and metadata to
// exactly zero.
func TestLeaseHammerConvergence(t *testing.T) {
	inj := storetest.NewInjector(42, 0.15)
	base := storetest.Factory(t)
	c := newCluster(t, core.Options{
		Providers: 3, Monitoring: false,
		Clock: time.Now,
		ProviderStore: func(id string) provider.Store {
			var inner provider.Store
			if base != nil {
				inner = base(id)
			}
			if inner == nil {
				inner = provider.NewMemStore(0)
			}
			return &storetest.FlakyStore{Store: inner, Inj: inj}
		},
	})
	cl := c.Client("alice")
	ctx := context.Background()

	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Injected purge failures are expected while the faults run;
			// the convergence check below sweeps with injection off.
			_, _ = c.GC.Sweep(ctx, false)
			_, _ = c.GC.EnforceRetention(ctx, time.Now())
		}
	}()

	var writers sync.WaitGroup
	for wi := 0; wi < 4; wi++ {
		writers.Add(1)
		go func(wi int) {
			defer writers.Done()
			for i := 0; i < 8; i++ {
				info, err := cl.Create(ctx, 256)
				if err != nil {
					continue
				}
				wctx, cancel := context.WithCancel(ctx)
				func() {
					b, err := cl.Open(wctx, info.ID)
					if err != nil {
						return
					}
					w, err := b.NewWriter(wctx, 0)
					if err != nil {
						return
					}
					// Shared alphabet: writers re-put each other's
					// content, racing sweeps over identical chunk IDs.
					payload := bytes.Repeat([]byte{byte('a' + (wi+i)%4)}, 512)
					if _, err := w.Write(payload); err != nil {
						_ = w.Close()
						return
					}
					if (wi+i)%3 == 0 {
						// Crash mid-stream: the ended context releases
						// the writer's protections with no Close.
						cancel()
						return
					}
					if i%2 == 0 {
						_ = c.VM.SetRetention(info.ID, vmanager.Retention{KeepLast: 1})
					}
					_ = w.Close()
				}()
				cancel()
				// Published or not, the blob must end deleted so the
				// convergence check can demand exact zero.
				_ = c.GC.DeleteBlob(info.ID)
			}
		}(wi)
	}
	writers.Wait()
	close(stop)
	sweeps.Wait()

	// Faults off: everything must converge to zero. No lease may
	// outlive its writer — a chunk lease left behind would keep its
	// chunk for the provider's 30 s TTL, far past this wait, and a base
	// hold would keep its deleted BLOB from being forgotten.
	inj.SetEnabled(false)
	waitFor(t, "leased cluster convergence", func() bool {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
		return totalChunks(c) == 0 && c.VM.MetaStore().Len() == 0 &&
			len(c.VM.DeletedBlobs()) == 0
	})
}

// TestQueuedPublicationSurvivesSweeps: a version whose predecessor ticket
// is still in flight is only queued when its writer's Publish returns, and
// the writer then releases its chunk leases. Its chunks are referenced by
// no published version yet, so the mark must take them from the version
// manager's queue: after the released leases have retired, the
// predecessor's abort publishes the version and it reads back intact.
func TestQueuedPublicationSurvivesSweeps(t *testing.T) {
	c := newCluster(t, core.Options{Providers: 2, Monitoring: false})
	cl := c.Client("alice")
	ctx := context.Background()
	info, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := c.VM.AssignAppend(info.ID, "alice", 256) // left in flight
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'q'}, 256)
	v2, err := cl.Append(ctx, info.ID, payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.VM.Abort(info.ID, v1.Version); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Read(ctx, info.ID, v2, 256, 256); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read of the queued v%d after three sweeps: %v", v2, err)
	}
}
