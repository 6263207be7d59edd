package storetest_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/diskstore"
	"blobseer/internal/faultdom"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/storetest"
)

// everyConn is every client.Conn in the tree, each over a fresh provider:
// the provider itself, the rpc plane, the fault guard and the
// fault-injection wrappers.
var everyConn = []struct {
	name string
	over func(t *testing.T, p *provider.Provider) client.Conn
}{
	{"provider", func(_ *testing.T, p *provider.Provider) client.Conn { return p }},
	{"rpc", func(t *testing.T, p *provider.Provider) client.Conn {
		srv, err := rpc.Serve(p, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		conn, err := rpc.DialContext(context.Background(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}},
	{"faultdom", func(_ *testing.T, p *provider.Provider) client.Conn {
		return faultdom.NewPlane(faultdom.Config{}, nil).Wrap(p.ID(), p)
	}},
	{"flaky", func(_ *testing.T, p *provider.Provider) client.Conn {
		return &storetest.FlakyConn{Inner: p, Inj: storetest.NewInjector(1, 0)}
	}},
	{"slow", func(_ *testing.T, p *provider.Provider) client.Conn {
		return &storetest.SlowConn{Inner: p, R: storetest.NewRand(1), MaxDelay: time.Millisecond}
	}},
}

// TestEveryConnCarriesLeases: a Conn must not hide leasing. Through
// every client.Conn in the tree a LeaseChunks protects its chunk from a
// wholesale purge, so does a Store's lease by the time the Store
// returns, and a ReleaseLease retires the protection: a purge right
// after it still skips the chunk, a renewal sent after it does not
// revive it, and the second epoch advance after it lets the purge free
// the chunk. A wrapper that swallowed any of them would leave the
// writers behind it unprotected, or their chunks leased for the TTL.
func TestEveryConnCarriesLeases(t *testing.T) {
	ctx := context.Background()
	for _, c := range everyConn {
		t.Run(c.name, func(t *testing.T) {
			p := provider.New("p00", "z0", 0)
			conn := c.over(t, p)
			data := []byte(c.name)
			id := chunk.Sum(data)
			purge := func(want int, after string) {
				t.Helper()
				if n, _, err := p.PurgeChunks(ctx, []chunk.ID{id}); err != nil || n != want {
					t.Fatalf("purge after %s = %d, %v, want %d", after, n, err, want)
				}
			}
			if err := conn.LeaseChunks(ctx, "w1", time.Minute, []chunk.ID{id}); err != nil {
				t.Fatal(err)
			}
			if err := p.Store(ctx, "u", id, data); err != nil { // unleased, straight at the provider
				t.Fatal(err)
			}
			purge(0, "LeaseChunks through the conn")
			if err := conn.Store(chunk.WithLease(ctx, &chunk.Lease{ID: "w2", TTL: time.Minute}), "u", id, data); err != nil {
				t.Fatal(err)
			}
			// A release may be one-way; a reply to any later call on the
			// same conn comes after the provider applied it.
			if err := conn.ReleaseLease(ctx, "w1"); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Fetch(ctx, "u", id); err != nil {
				t.Fatal(err)
			}
			purge(0, "a leased Store through the conn")
			if err := conn.ReleaseLease(ctx, "w2"); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Fetch(ctx, "u", id); err != nil {
				t.Fatal(err)
			}
			purge(0, "both ReleaseLease calls through the conn")
			if err := conn.LeaseChunks(ctx, "w2", time.Minute, nil); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := p.AdvanceEpoch(ctx); err != nil {
					t.Fatal(err)
				}
			}
			purge(1, "a renewal after the releases and two epoch advances")
		})
	}
}

// TestEveryConnHonoursRanges: through every client.Conn in the tree a
// fetch returns the byte range its context carries, clamped to the chunk,
// and the provider sends only those bytes. A wrapper that dropped the
// range would hand a reader the whole chunk where it expects the range,
// and the reader would serve the wrong bytes. Each conn runs over a
// memory store and, in a "disk" subtest, over a diskstore, whose reads
// the rpc server answers with lent views of a segment mapping: every view
// (the two empty ones included) must come back, or the segment outlives
// its compaction.
func TestEveryConnHonoursRanges(t *testing.T) {
	data := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	for _, c := range everyConn {
		t.Run(c.name, func(t *testing.T) {
			p := provider.New("p00", "z0", 0)
			fetchRanges(t, p, c.over(t, p), data)
			t.Run("disk", func(t *testing.T) {
				dir := t.TempDir()
				ds, err := diskstore.Open(dir, diskstore.Options{SegmentBytes: 64, CompactEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer ds.Close()
				p := provider.New("p00", "z0", 0, provider.WithStore(ds))
				fetchRanges(t, p, c.over(t, p), data)
				// The chunk's segment is sealed (the chunk outgrew
				// SegmentBytes): purge the chunk and compact it away.
				// Its file is unlinked once no view pins it — the rpc
				// server donates a reply after writing it, so the last
				// pin may come back just after the last Fetch returns.
				if _, err := ds.Purge(chunk.Sum(data)); err != nil {
					t.Fatal(err)
				}
				if dropped, _, err := ds.CompactOnce(); err != nil || dropped != 1 {
					t.Fatalf("CompactOnce dropped %d segments (err %v), want the chunk's", dropped, err)
				}
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
					if len(segs) == 1 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("%d segment files after the chunk's was compacted away, want 1: a view's pin never came back", len(segs))
					}
				}
			})
		})
	}
}

// fetchRanges stores data through conn and fetches six ranges of it,
// checking the bytes returned and the bytes p sent.
func fetchRanges(t *testing.T, p *provider.Provider, conn client.Conn, data []byte) {
	t.Helper()
	ctx := context.Background()
	id := chunk.Sum(data)
	if err := conn.Store(ctx, "u", id, data); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		off, n int64
		want   string
	}{
		{0, 0, string(data)},   // no range: the whole chunk
		{3, 5, "34567"},        // inside the chunk
		{30, 100, "uvwxyz"},    // past the end: clamped
		{36, 4, ""},            // at the end: empty
		{1 << 40, 1 << 40, ""}, // far past it: empty
		{0, int64(len(data)), string(data)},
	} {
		before := p.Stats().BytesOut
		got, err := conn.Fetch(chunk.WithRange(ctx, r.off, r.n), "u", id)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != r.want {
			t.Fatalf("fetch of [%d, +%d) = %q, want %q", r.off, r.n, got, r.want)
		}
		if moved := p.Stats().BytesOut - before; moved != int64(len(r.want)) {
			t.Fatalf("fetch of [%d, +%d) moved %d bytes, want %d", r.off, r.n, moved, len(r.want))
		}
		chunk.PutBuf(got)
	}
}
