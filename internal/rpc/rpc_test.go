package rpc

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

// bg is the no-deadline context transfers run under in these tests.
var bg = context.Background()

func startProvider(t *testing.T, id string) (*provider.Provider, *Server) {
	t.Helper()
	p := provider.New(id, "z", 0)
	srv, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return p, srv
}

func TestStoreFetchOverTCP(t *testing.T) {
	_, srv := startProvider(t, "p1")
	conn, err := DialContext(bg, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data := []byte("over the wire")
	id := chunk.Sum(data)
	if err := conn.Store(bg, "alice", id, data); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Fetch(bg, "bob", id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch: %q err=%v", got, err)
	}
	st, err := conn.Stats()
	if err != nil || st.Stores != 1 || st.Fetches != 1 {
		t.Fatalf("stats=%+v err=%v", st, err)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, srv := startProvider(t, "p1")
	conn, err := DialContext(bg, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = conn.Fetch(bg, "u", chunk.Sum([]byte("missing")))
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("want not-found error, got %v", err)
	}
	if err := conn.Remove(bg, chunk.Sum([]byte("missing"))); err == nil {
		t.Fatal("want error removing missing chunk")
	}
}

func TestDirectoryCachingAndUnknown(t *testing.T) {
	_, srv := startProvider(t, "p1")
	dir := NewDirectory(map[string]string{"p1": srv.Addr()})
	defer dir.Close()
	c1, err := dir.Lookup(bg, "p1")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := dir.Lookup(bg, "p1")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("directory did not cache the connection")
	}
	if _, err := dir.Lookup(bg, "ghost"); err == nil {
		t.Fatal("want error for unknown provider")
	}
}

// Full BlobSeer write/read across real TCP providers.
func TestClientOverTCPEndToEnd(t *testing.T) {
	ctx := context.Background()
	addrs := map[string]string{}
	for _, id := range []string{"p1", "p2", "p3"} {
		_, srv := startProvider(t, id)
		addrs[id] = srv.Addr()
	}
	dir := NewDirectory(addrs)
	defer dir.Close()

	vm := vmanager.New(blobmeta.NewMemStore("m1", nil, nil))
	pm := pmanager.New(pmanager.WithTTL(0))
	for id := range addrs {
		if err := pm.Register(pmanager.Info{ID: id, Zone: "z"}); err != nil {
			t.Fatal(err)
		}
	}
	cl := client.New("alice", vm, pm, dir, client.WithReplicas(2))
	info, err := cl.Create(ctx, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("tcp-blobseer"), 600)
	if _, err := cl.Write(ctx, info.ID, 0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(ctx, info.ID, 0, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read mismatch err=%v", err)
	}
}

func TestServerCloseStopsAccept(t *testing.T) {
	_, srv := startProvider(t, "p1")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := DialContext(bg, srv.Addr()); err == nil {
		t.Fatal("dial succeeded after close")
	}
}

func TestDirectoryRegisterReplaces(t *testing.T) {
	p1, srv1 := startProvider(t, "pX")
	dir := NewDirectory(map[string]string{"pX": srv1.Addr()})
	defer dir.Close()
	data := []byte("v1")
	id := chunk.Sum(data)
	conn, err := dir.Lookup(bg, "pX")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Store(bg, "u", id, data); err != nil {
		t.Fatal(err)
	}
	if !p1.Has(id) {
		t.Fatal("chunk not on p1")
	}
	// Re-point pX at a fresh provider; lookups must dial the new one.
	p2, srv2 := startProvider(t, "pX2")
	dir.Register("pX", srv2.Addr())
	conn, err = dir.Lookup(bg, "pX")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Store(bg, "u", id, data); err != nil {
		t.Fatal(err)
	}
	if !p2.Has(id) {
		t.Fatal("chunk not on replacement provider")
	}
}

// TestLifecycleRPCs round-trips the sweep surface over TCP: paginated
// chunk listing, epoch advance and bulk purge.
func TestLifecycleRPCs(t *testing.T) {
	p, srv := startProvider(t, "p1")
	conn, err := DialContext(bg, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var ids []chunk.ID
	for i := 0; i < 5; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 8)
		ids = append(ids, chunk.Sum(data))
		if err := conn.Store(bg, "u", ids[i], data); err != nil {
			t.Fatal(err)
		}
	}

	// Page through the inventory, 2 at a time.
	var got []chunk.ID
	var after chunk.ID
	for {
		page, more, err := conn.ListChunks(bg, after, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, ci := range page {
			got = append(got, ci.ID)
			if ci.Size != 8 || ci.Refs != 1 {
				t.Fatalf("chunk info over rpc = %+v", ci)
			}
		}
		if len(page) > 0 {
			after = page[len(page)-1].ID
		}
		if !more {
			break
		}
	}
	if len(got) != 5 {
		t.Fatalf("listed %d chunks over rpc, want 5", len(got))
	}

	e, err := conn.AdvanceEpoch(bg)
	if err != nil || e != 1 {
		t.Fatalf("advance epoch over rpc = %d, %v", e, err)
	}

	purged, freed, err := conn.PurgeChunks(bg, ids[:3])
	if err != nil || purged != 3 || freed != 24 {
		t.Fatalf("purge over rpc = %d chunks %d bytes, %v", purged, freed, err)
	}
	if p.Stats().Chunks != 2 {
		t.Fatalf("chunks after rpc purge = %d, want 2", p.Stats().Chunks)
	}

	// A stopped provider refuses the epoch calls like every other one: a
	// remote sweep must not age its chunks out of their grace window.
	p.Stop()
	if _, err := conn.AdvanceEpoch(bg); err == nil || !strings.Contains(err.Error(), provider.ErrStopped.Error()) {
		t.Fatalf("advance epoch on a stopped provider over rpc: %v, want ErrStopped", err)
	}
	p.Restart()
	if e, err := conn.Epoch(bg); err != nil || e != 1 {
		t.Fatalf("epoch after restart over rpc = %d, %v; want 1", e, err)
	}
}

// stuckStore blocks Put/GetAppend until release is closed — a blackholed
// provider: the TCP session is up, the handler just never answers.
type stuckStore struct {
	provider.Store
	release chan struct{}
}

func (s *stuckStore) Put(id chunk.ID, data []byte) error {
	<-s.release
	return s.Store.Put(id, data)
}

func (s *stuckStore) GetAppend(id chunk.ID, dst []byte) ([]byte, error) {
	<-s.release
	return s.Store.GetAppend(id, dst)
}

// TestCallDeadlineOverTCP is the deadline-enforcement regression on the
// net/rpc plane: a call against a blackholed provider must fail within
// its ctx deadline plus a small epsilon — enforced as a kernel deadline
// on the wire — never the OS read timeout.
func TestCallDeadlineOverTCP(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	st := &stuckStore{Store: provider.NewMemStore(0), release: release}
	p := provider.New("stuck", "z", 0, provider.WithStore(st))
	srv, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, err := DialContext(bg, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	data := []byte("never lands")
	id := chunk.Sum(data)
	ctx, cancel := context.WithTimeout(bg, 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := conn.Store(ctx, "u", id, data); err == nil {
		t.Fatal("Store against blackholed provider succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Store took %v, want ~ctx deadline (150ms)", elapsed)
	}

	// The expired wire deadline killed the conn; a fresh one with a
	// conn-level default timeout must bound Fetch the same way even on
	// a deadline-free context.
	conn2, err := DialContext(bg, srv.Addr(), WithCallTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	start = time.Now()
	if _, err := conn2.Fetch(bg, "u", id); err == nil {
		t.Fatal("Fetch against blackholed provider succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Fetch took %v, want ~call timeout (150ms)", elapsed)
	}
}

// TestDirectoryDropsBrokenConn is the stale-conn regression: when a
// provider dies, the cached conn's calls fail, and the directory must
// re-resolve on the next Lookup — without waiting for a Register — so a
// provider restarted on the same address is reachable again.
func TestDirectoryDropsBrokenConn(t *testing.T) {
	_, srv := startProvider(t, "pR")
	addr := srv.Addr()
	dir := NewDirectory(map[string]string{"pR": addr})
	defer dir.Close()

	data := []byte("before the crash")
	id := chunk.Sum(data)
	conn, err := dir.Lookup(bg, "pR")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Store(bg, "u", id, data); err != nil {
		t.Fatal(err)
	}

	// Provider dies: the server tears down its accepted conns, so the
	// cached client conn fails fast and evicts itself.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Store(bg, "u", id, data); err == nil {
		t.Fatal("Store over dead conn succeeded")
	}

	// Provider restarts on the same address; no Register happens. The
	// next Lookup must dial afresh instead of serving the dead conn.
	p2 := provider.New("pR", "z", 0)
	srv2, err := Serve(p2, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn2, err := dir.Lookup(bg, "pR")
		if err == nil {
			if err = conn2.Store(bg, "u", id, data); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("store via re-resolved conn never succeeded: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !p2.Has(id) {
		t.Fatal("chunk not on restarted provider")
	}
}

// TestLeaseRPCs round-trips the writer-lease surface over TCP: chunks
// registered under a lease survive a wholesale purge, enumeration
// reports the lease with its IDs, renewal is an empty registration, and
// release makes the chunks purgeable again.
func TestLeaseRPCs(t *testing.T) {
	p, srv := startProvider(t, "p1")
	conn, err := DialContext(bg, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	data := []byte("leased-over-the-wire")
	id := chunk.Sum(data)
	if err := conn.LeaseChunks(bg, "wl-test-1", time.Minute, []chunk.ID{id}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Store(bg, "u", id, data); err != nil {
		t.Fatal(err)
	}

	leases, err := conn.Leases(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 1 || leases[0].ID != "wl-test-1" ||
		len(leases[0].Chunks) != 1 || leases[0].Chunks[0] != id {
		t.Fatalf("leases over rpc = %+v", leases)
	}
	if leases[0].Expires.IsZero() {
		t.Fatal("lease expiry did not survive the wire")
	}

	// A leased chunk is skipped by purge, not deleted.
	purged, _, err := conn.PurgeChunks(bg, []chunk.ID{id})
	if err != nil || purged != 0 {
		t.Fatalf("purge of leased chunk = %d, %v, want 0 skipped", purged, err)
	}
	if p.Stats().Chunks != 1 {
		t.Fatal("leased chunk was purged")
	}

	// Renewal with no new IDs keeps the registration alive.
	if err := conn.LeaseChunks(bg, "wl-test-1", time.Minute, nil); err != nil {
		t.Fatal(err)
	}

	if err := conn.ReleaseLease(bg, "wl-test-1"); err != nil {
		t.Fatal(err)
	}
	purged, _, err = conn.PurgeChunks(bg, []chunk.ID{id})
	if err != nil || purged != 1 {
		t.Fatalf("purge after release = %d, %v, want 1", purged, err)
	}
}
