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
	"blobseer/internal/provider"
	"blobseer/internal/storetest"
	"blobseer/internal/vmanager"
)

// writerClient mints the regression tests' client: the cluster's own
// (leased), or one with the lease hook taken out — the unleased
// subtests prove each race manifests with the grace window as the only
// protection.
func writerClient(c *core.Cluster, leases bool) *client.Client {
	if leases {
		return c.Client("alice")
	}
	return c.ClientWith("alice", client.WithLeaser(nil))
}

// --- regression 1: stale upload vs grace exhaustion ------------------

// TestLeaseProtectsUnpublishedWriterPastGrace: a writer that stays open
// across more sweeps than GCGraceEpochs covers keeps its flushed chunks
// only because its lease protects them — the grace window alone gives
// up after GCGraceEpochs+1 passes. The unleased subtest demonstrates
// the underlying race the lease closes: the same upload loses its
// chunks and publishes a version that cannot be read back.
func TestLeaseProtectsUnpublishedWriterPastGrace(t *testing.T) {
	run := func(t *testing.T, leases bool) {
		c := newCluster(t, core.Options{Providers: 2, Monitoring: false}) // default grace: 1 epoch
		cl := writerClient(c, leases)
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

		// Four sweeps: far past the default one-epoch grace. The stale
		// upload is exactly the shape the grace window cannot cover.
		var last gc.SweepReport
		for i := 0; i < 4; i++ {
			last, err = c.GC.Sweep(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
		}

		if !leases {
			if totalChunks(c) != 0 {
				t.Fatalf("without leases the stale upload's chunk must fall out of grace, %d chunks remain", totalChunks(c))
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
		if st := c.GC.Stats(); st.ActiveLeases != 0 {
			t.Fatalf("Close left %d leases registered", st.ActiveLeases)
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
// the chunk, so the published version reads back intact. Without leases
// the store lands under the purge and the deletion wins after the
// version published — the read fails.
func TestLeaseBlocksPurgeOfReusedChunk(t *testing.T) {
	run := func(t *testing.T, leases bool) {
		var armed atomic.Bool
		entered := make(chan struct{})
		release := make(chan struct{})
		base := storetest.Factory(t)
		c := newCluster(t, core.Options{
			Providers: 1, Monitoring: false, GCGraceEpochs: -1,
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
		})
		cl := writerClient(c, leases)
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
// base v1 leases (and thereby holds) that version; a concurrent publish
// plus KeepLast:1 retention would otherwise retire v1 mid-stream and
// sweep the very chunk the writer's partial slot 0 must merge against.
// With leases retention skips the held base (Held) and the
// merge reads it intact; without leases v1 is retired and the writer's
// edge merge demonstrably breaks.
func TestLeaseHoldsBaseVersionAgainstRetention(t *testing.T) {
	run := func(t *testing.T, leases bool) {
		c := newCluster(t, core.Options{Providers: 2, Monitoring: false, GCGraceEpochs: -1})
		cl := writerClient(c, leases)
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

		// Writer opens mid-chunk against base v1 (and, with leases,
		// holds it).
		b, err := cl.Open(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		w, err := b.NewWriter(ctx, 128)
		if err != nil {
			t.Fatal(err)
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

// --- why the grace window stays beside the leases --------------------

// closeOnList is the cluster's provider plane with a hook that runs
// once, at the first ListChunks call: between a sweep's mark and its
// classification of the inventory.
type closeOnList struct {
	c    *core.Cluster
	once sync.Once
	hook func()
}

func (cl *closeOnList) IDs() []string { return cl.c.Providers() }

func (cl *closeOnList) Provider(ctx context.Context, id string) (provider.API, error) {
	p, err := cl.c.Pool().Provider(ctx, id)
	return hookedList{p, cl}, err
}

type hookedList struct {
	provider.API
	cl *closeOnList
}

func (h hookedList) ListChunks(ctx context.Context, after chunk.ID, limit int) ([]provider.ChunkInfo, bool, error) {
	h.cl.once.Do(h.cl.hook)
	return h.API.ListChunks(ctx, after, limit)
}

// TestGraceCoversWriterPublishedAfterMark: a writer stores its chunk
// under a lease, the sweep marks its BLOB before the writer publishes,
// and the writer then publishes and releases its lease before the sweep
// lists the provider's chunks. The chunk is neither marked nor leased
// at its purge; only the put-epoch grace window keeps it. With grace 0
// the published version's chunk is purged; with the default grace it
// survives. Leases therefore do not replace the window.
func TestGraceCoversWriterPublishedAfterMark(t *testing.T) {
	run := func(t *testing.T, opts ...gc.Option) {
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

		plane := &closeOnList{c: c, hook: func() {
			if err := w.Close(); err != nil {
				t.Error(err)
			}
		}}
		rep, err := gc.New(c.VM, plane, opts...).Sweep(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Live != 0 {
			t.Fatalf("sweep = %+v: the chunk must not be marked", rep)
		}
		got, err := cl.Read(ctx, info.ID, 0, 0, 256)
		survived := err == nil && bytes.Equal(got, payload)
		if len(opts) > 0 { // grace 0
			if survived || rep.Swept != 1 {
				t.Fatalf("grace 0: sweep = %+v, read survived = %v; want the published chunk purged", rep, survived)
			}
			return
		}
		if !survived || rep.InGrace != 1 {
			t.Fatalf("default grace: sweep = %+v, read err = %v; want the chunk kept in grace", rep, err)
		}
	}
	t.Run("grace=0", func(t *testing.T) { run(t, gc.WithGraceEpochs(0)) })
	t.Run("grace=default", func(t *testing.T) { run(t) })
}

// --- fail-safe: expired leases reaped, then reclaimed ----------------

// TestLeaseExpiryReapedBySweep: a writer that vanishes without Close
// (crashed gateway) leaves a lease behind. Once the TTL lapses the next
// sweep reaps the record on both planes and reclaims the chunks it
// protected — a dead writer cannot pin storage forever.
func TestLeaseExpiryReapedBySweep(t *testing.T) {
	var mu sync.Mutex
	now := t0
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	c := newCluster(t, core.Options{
		Providers: 2, Monitoring: false, GCGraceEpochs: -1, Clock: clock,
	})
	cl := c.Client("alice")
	info, err := cl.Create(context.Background(), 256)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(context.Background())
	b, err := cl.Open(wctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.NewWriter(wctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte{'d'}, 256)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "background flush", func() bool { return totalChunks(c) == 1 })
	// The writer crashes: context dies, Close never runs.
	cancel()

	ctx := context.Background()
	rep, err := c.GC.Sweep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swept != 0 || totalChunks(c) != 1 {
		t.Fatalf("sweep before expiry = %+v, want the leased chunk kept", rep)
	}

	advance(time.Hour) // far past the default 30s TTL
	rep, err = c.GC.Sweep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeasesReaped == 0 {
		t.Fatalf("sweep after expiry = %+v, want expired leases reaped", rep)
	}
	if st := c.GC.Stats(); st.ActiveLeases != 0 || st.ReapedLeases == 0 {
		t.Fatalf("stats after reap = %+v", st)
	}
	// The reaped lease protects nothing: the next pass reclaims.
	waitFor(t, "abandoned chunks reclaimed", func() bool {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
		return totalChunks(c) == 0
	})
}

// --- convergence hammer ----------------------------------------------

// TestLeaseHammerConvergence drives leased writers — publishing,
// failing, and crashing mid-stream — against concurrent sweeps and
// retention under fault injection, with the grace window disabled so
// leases are the only in-flight protection. Once the faults stop and
// every blob is deleted, sweeps must converge providers, metadata and
// the lease table to exactly zero.
func TestLeaseHammerConvergence(t *testing.T) {
	inj := storetest.NewInjector(42, 0.15)
	base := storetest.Factory(t)
	c := newCluster(t, core.Options{
		Providers: 3, Monitoring: false, GCGraceEpochs: -1,
		Clock:          time.Now,
		WriterLeaseTTL: 150 * time.Millisecond,
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
						// Crash mid-stream: the lease leaks until its
						// TTL lapses and a sweep reaps it.
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

	// Faults off, leases expiring: everything must converge to zero.
	inj.SetEnabled(false)
	waitFor(t, "leased cluster convergence", func() bool {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
		st := c.GC.Stats()
		return totalChunks(c) == 0 && c.VM.MetaStore().Len() == 0 &&
			len(c.VM.DeletedBlobs()) == 0 && st.ActiveLeases == 0
	})
}
