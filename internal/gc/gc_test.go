package gc_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/core"
	"blobseer/internal/gc"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/s3gate"
	"blobseer/internal/storetest"
	"blobseer/internal/vmanager"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newCluster(t testing.TB, opts core.Options) *core.Cluster {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = func() time.Time { return t0 }
	}
	if opts.ProviderStore == nil {
		// BLOBSEER_PROVIDER_STORE=disk|tiered reruns the whole suite
		// against the durable store implementations.
		opts.ProviderStore = storetest.Factory(t)
	}
	c, err := core.NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// chunkCounts snapshots every provider's distinct-chunk count.
func chunkCounts(c *core.Cluster) map[string]int {
	out := map[string]int{}
	for _, id := range c.Providers() {
		if p, ok := c.Provider(id); ok {
			out[id] = p.Stats().Chunks
		}
	}
	return out
}

func totalChunks(c *core.Cluster) int {
	n := 0
	for _, v := range chunkCounts(c) {
		n += v
	}
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPinDefersDeleteUntilClose: a streaming reader pins its version, a
// concurrent delete queues behind the pin, the reader serves its full
// window, and the drained pin reclaims synchronously on Close.
func TestPinDefersDeleteUntilClose(t *testing.T) {
	c := newCluster(t, core.Options{Providers: 3, Monitoring: false, GCGraceEpochs: -1})
	cl := c.Client("alice")
	info, err := cl.Create(context.Background(), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("pinned-data!"), 512) // 6 KiB = 6 chunks
	if _, err := cl.Write(context.Background(), info.ID, 0, payload); err != nil {
		t.Fatal(err)
	}
	if totalChunks(c) == 0 {
		t.Fatal("no chunks stored")
	}

	ctx := context.Background()
	b, err := cl.Open(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := b.NewReader(ctx, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Read a prefix so the stream is genuinely in flight.
	head := make([]byte, 100)
	if _, err := io.ReadFull(rd, head); err != nil {
		t.Fatal(err)
	}

	if err := c.GC.DeleteBlob(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if got := c.GC.DeferredBlobs(); len(got) != 1 || got[0] != info.ID {
		t.Fatalf("deferred = %v, want [%d]", got, info.ID)
	}
	if totalChunks(c) == 0 {
		t.Fatal("pinned blob's chunks were reclaimed while the stream was open")
	}
	// New opens fail: the blob is deleted, only existing pins survive.
	if _, err := cl.Open(ctx, info.ID); !errors.Is(err, vmanager.ErrDeleted) {
		t.Fatalf("open after delete: %v, want ErrDeleted", err)
	}

	rest := make([]byte, len(payload)-100)
	if _, err := io.ReadFull(rd, rest); err != nil {
		t.Fatalf("read rest: %v", err)
	}
	if !bytes.Equal(append(head, rest...), payload) {
		t.Fatal("pinned stream served corrupted data")
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if got := totalChunks(c); got != 0 {
		t.Fatalf("chunks after drain reclaim = %d, want 0", got)
	}
	if got := c.GC.DeferredBlobs(); len(got) != 0 {
		t.Fatalf("deferred after drain = %v, want none", got)
	}
	st := c.GC.Stats()
	if st.Pins != 0 || st.DeferredBlobs != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestRetentionRetiresOldVersions: keep-last-N and max-age nominate old
// versions, pinned versions are skipped until their reader closes, and
// the sweep reclaims chunks only retired versions referenced.
func TestRetentionRetiresOldVersions(t *testing.T) {
	ctx := context.Background()
	now := t0
	c := newCluster(t, core.Options{
		Providers: 3, Monitoring: false, GCGraceEpochs: -1,
		Clock: func() time.Time { return now },
	})
	cl := c.Client("alice")
	info, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Four versions, each overwriting slot 0 with distinct content: the
	// older versions' chunks are exclusive to them.
	for i := 0; i < 4; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 256)
		if _, err := cl.Write(ctx, info.ID, 0, data); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Minute)
	}
	if got := totalChunks(c); got != 4 {
		t.Fatalf("chunks before retention = %d, want 4", got)
	}
	if err := c.VM.SetRetention(info.ID, vmanager.Retention{KeepLast: 2}); err != nil {
		t.Fatal(err)
	}

	// Pin v1: the policy nominates v1 and v2, but only v2 retires now.
	if err := c.GC.Pin(info.ID, rootOf(t, c.VM, info.ID, 1)); err != nil {
		t.Fatal(err)
	}
	rep, err := c.GC.EnforceRetention(context.Background(), now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retired != 1 || rep.PinnedSkipped != 1 {
		t.Fatalf("retention report = %+v, want Retired 1 PinnedSkipped 1", rep)
	}
	if _, err := c.VM.Version(info.ID, 2); !errors.Is(err, vmanager.ErrBadVersion) {
		t.Fatalf("retired version still readable: %v", err)
	}
	if _, err := c.VM.Version(info.ID, 1); err != nil {
		t.Fatalf("pinned version must remain readable: %v", err)
	}

	c.GC.Unpin(info.ID, 1)
	rep, err = c.GC.EnforceRetention(context.Background(), now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retired != 1 {
		t.Fatalf("second pass retired = %d, want 1", rep.Retired)
	}

	srep, err := c.GC.Sweep(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if srep.Swept != 2 {
		t.Fatalf("swept = %d, want 2 (v1+v2 exclusive chunks)", srep.Swept)
	}
	if got := totalChunks(c); got != 2 {
		t.Fatalf("chunks after sweep = %d, want 2 (v3+v4)", got)
	}
	// The surviving versions still read back.
	got, err := cl.Read(ctx, info.ID, 3, 0, 256)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{'c'}, 256)) {
		t.Fatalf("v3 read after sweep: %v", err)
	}

	// Max-age: everything but the latest ages out.
	if err := c.VM.SetRetention(info.ID, vmanager.Retention{MaxAge: time.Minute}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Hour)
	rep, err = c.GC.EnforceRetention(context.Background(), now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retired != 1 {
		t.Fatalf("max-age retired = %d, want 1 (v3)", rep.Retired)
	}
	if _, err := c.VM.Latest(info.ID); err != nil {
		t.Fatalf("latest must survive max-age: %v", err)
	}
}

// TestSweepAcceptance is the subsystem's end-to-end criterion: three
// versions with overlapping chunk content, a selfopt heal that
// republishes descriptors, a delete racing a pinned streaming reader,
// and a sweep — after which every provider is exactly back at its
// pre-blob baseline while the pinned reader saw its full version.
func TestSweepAcceptance(t *testing.T) {
	c := newCluster(t, core.Options{
		Providers: 4, Replicas: 2, Monitoring: false, GCGraceEpochs: -1,
	})
	baseline := chunkCounts(c)

	cl := c.Client("alice")
	info, err := cl.Create(context.Background(), 512)
	if err != nil {
		t.Fatal(err)
	}
	blob := info.ID

	// v1: slots 0-3, where slots 1 and 2 repeat the same content.
	v1 := make([]byte, 0, 4*512)
	v1 = append(v1, bytes.Repeat([]byte{'A'}, 512)...)
	v1 = append(v1, bytes.Repeat([]byte{'B'}, 512)...)
	v1 = append(v1, bytes.Repeat([]byte{'B'}, 512)...)
	v1 = append(v1, bytes.Repeat([]byte{'D'}, 512)...)
	if _, err := cl.Write(context.Background(), blob, 0, v1); err != nil {
		t.Fatal(err)
	}
	// v2: overwrite slot 0 with slot 3's content (cross-version overlap).
	if _, err := cl.Write(context.Background(), blob, 0, bytes.Repeat([]byte{'D'}, 512)); err != nil {
		t.Fatal(err)
	}
	// v3: append a fresh slot.
	if _, err := cl.Append(context.Background(), blob, bytes.Repeat([]byte{'E'}, 512)); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, bytes.Repeat([]byte{'D'}, 512)...), v1[512:]...)
	want = append(want, bytes.Repeat([]byte{'E'}, 512)...)

	// Heal: stop one provider that holds chunks, let selfopt republish
	// repaired descriptors, then bring the provider back so its stale
	// replicas are sweepable.
	var stopped *provider.Provider
	for _, id := range c.Providers() {
		if p, _ := c.Provider(id); p.Stats().Chunks > 0 {
			stopped = p
			break
		}
	}
	if stopped == nil {
		t.Fatal("no provider holds chunks")
	}
	stopped.Stop()
	rep, err := c.Heal(context.Background(), t0)
	if err != nil {
		t.Fatalf("heal: %v (report %+v)", err, rep)
	}
	if rep.Repaired == 0 {
		t.Fatalf("heal repaired nothing: %+v", rep)
	}
	stopped.Restart()

	// Pinned streaming reader opened before the delete.
	ctx := context.Background()
	bh, err := cl.Open(ctx, blob)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := bh.NewReader(ctx, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 700)
	if _, err := io.ReadFull(rd, head); err != nil {
		t.Fatal(err)
	}

	if err := c.GC.DeleteBlob(ctx, blob); err != nil {
		t.Fatal(err)
	}

	// Sweep while the reader is mid-stream: the deferred snapshot keeps
	// its chunks marked.
	if _, err := c.GC.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}
	rest := make([]byte, len(want)-700)
	if _, err := io.ReadFull(rd, rest); err != nil {
		t.Fatalf("pinned read after sweep: %v", err)
	}
	if !bytes.Equal(append(head, rest...), want) {
		t.Fatal("pinned reader served wrong bytes")
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}

	// Drain reclaim plus one sweep must return every provider exactly to
	// its pre-blob baseline: no stale keys, no live-chunk casualties.
	if _, err := c.GC.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}
	after := chunkCounts(c)
	for id, n := range after {
		if n != baseline[id] {
			t.Errorf("provider %s: %d chunks, baseline %d", id, n, baseline[id])
		}
	}
	for _, id := range c.Providers() {
		p, _ := c.Provider(id)
		if p.Used() != 0 {
			t.Errorf("provider %s: %d bytes still used", id, p.Used())
		}
	}
}

// TestSweepGraceProtectsUnpublishedWriter: chunks flushed by a writer
// that has not yet published survive a sweep inside the grace window and
// are marked live once the version publishes.
func TestSweepGraceProtectsUnpublishedWriter(t *testing.T) {
	c := newCluster(t, core.Options{Providers: 2, Monitoring: false}) // default grace: 1 epoch
	cl := c.Client("alice")
	info, err := cl.Create(context.Background(), 256)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := cl.Open(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.NewWriter(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte{'x'}, 256)); err != nil {
		t.Fatal(err)
	}
	// The slot flushes in the background; wait for it to land.
	waitFor(t, "background flush", func() bool { return totalChunks(c) == 1 })

	rep, err := c.GC.Sweep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	// With writer leases on (the cluster default) the flushed chunk is
	// classified leased; either way it must not be swept.
	if rep.Swept != 0 || rep.Leased+rep.InGrace != 1 {
		t.Fatalf("sweep during write = %+v, want Leased+InGrace 1 Swept 0", rep)
	}
	if totalChunks(c) != 1 {
		t.Fatal("unpublished writer's chunk was swept")
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = c.GC.Sweep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live != 1 || rep.Swept != 0 {
		t.Fatalf("sweep after publish = %+v, want Live 1", rep)
	}
	got, err := cl.Read(ctx, info.ID, 0, 0, 256)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{'x'}, 256)) {
		t.Fatalf("read after sweeps: %v", err)
	}
}

// --- manual harness for the RPC-accounting regression ---------------

// testProviders adapts a provider map to gc.Providers.
type testProviders struct {
	m map[string]*provider.Provider
}

func (tp testProviders) IDs() []string {
	out := make([]string, 0, len(tp.m))
	for id := range tp.m {
		out = append(out, id)
	}
	return out
}

func (tp testProviders) Provider(_ context.Context, id string) (provider.API, error) {
	p, ok := tp.m[id]
	if !ok {
		return nil, fmt.Errorf("no provider %s", id)
	}
	return p, nil
}

// lateConn simulates the RPC plane's accounting gap: a Store the client
// cancels still completes server-side once the wire delivers it. The
// client's stored/orphan accounting never sees the chunk.
type lateConn struct {
	*provider.Provider // Fetch and lease traffic go straight through
	started            chan struct{}
	once               sync.Once

	mu      sync.Mutex
	pending []func() // server-side completions not yet delivered
}

func (lc *lateConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	lc.once.Do(func() { close(lc.started) })
	<-ctx.Done() // the client gives up first
	buf := append([]byte(nil), data...)
	lc.mu.Lock()
	lc.pending = append(lc.pending, func() {
		_ = lc.Provider.Store(context.Background(), user, id, buf)
	})
	lc.mu.Unlock()
	return ctx.Err()
}

// deliver runs the queued server-side completions.
func (lc *lateConn) deliver() {
	lc.mu.Lock()
	pend := lc.pending
	lc.pending = nil
	lc.mu.Unlock()
	for _, f := range pend {
		f()
	}
}

// TestSweepReclaimsLateCompletedStore: a Store cancelled client-side
// completes server-side after the write was abandoned. No descriptor
// references the chunk and the writer's StoredChunks never saw it — the
// sweep classifies it as unreferenced and reclaims it.
func TestSweepReclaimsLateCompletedStore(t *testing.T) {
	vm := vmanager.New(blobmeta.NewMemStore("m1", nil, nil))
	pm := pmanager.New(pmanager.WithTTL(0))
	p := provider.New("p00", "z0", 0)
	if err := pm.Register(pmanager.Info{ID: "p00", Zone: "z0"}); err != nil {
		t.Fatal(err)
	}
	lc := &lateConn{Provider: p, started: make(chan struct{})}
	dir := client.DirectoryFunc(func(context.Context, string) (client.Conn, error) {
		return lc, nil
	})
	cl := client.New("alice", vm, pm, dir)
	m := gc.New(vm, testProviders{m: map[string]*provider.Provider{"p00": p}},
		gc.WithGraceEpochs(0))

	info, err := cl.Create(context.Background(), 256)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, werr := cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte{'z'}, 256))
		errc <- werr
	}()
	// Cancel the client side only once the transfer is on the wire.
	<-lc.started
	cancel()
	if werr := <-errc; werr == nil {
		t.Fatal("cancelled write reported success")
	}
	if p.Stats().Chunks != 0 {
		t.Fatal("chunk landed before the late delivery")
	}

	// The wire delivers the request after all: the provider stores a
	// chunk no accounting references.
	lc.deliver()
	if p.Stats().Chunks != 1 {
		t.Fatal("late store did not land")
	}

	rep, err := m.Sweep(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swept != 1 || rep.Live != 0 {
		t.Fatalf("sweep = %+v, want the orphan classified swept", rep)
	}
	if p.Stats().Chunks != 0 || p.Used() != 0 {
		t.Fatalf("orphan not reclaimed: %d chunks, %d bytes", p.Stats().Chunks, p.Used())
	}
}

// flakyVM wraps the real version manager and injects transient errors
// into the calls the mark phase makes — the failure mode of a flaky
// metadata plane, as opposed to a BLOB that legitimately vanished.
type flakyVM struct {
	gc.VersionManager
	failVersions atomic.Bool
	failTree     atomic.Bool
}

var errPlane = errors.New("metadata plane down")

func (f *flakyVM) Versions(blob uint64) ([]vmanager.VersionMeta, error) {
	if f.failVersions.Load() {
		return nil, errPlane
	}
	return f.VersionManager.Versions(blob)
}

func (f *flakyVM) Tree(blob uint64) (*blobmeta.Tree, error) {
	if f.failTree.Load() {
		return nil, errPlane
	}
	return f.VersionManager.Tree(blob)
}

// flakyMeta is a metadata store whose reads can be made to fail — the
// mid-walk flavor of the same failure.
type flakyMeta struct {
	*blobmeta.MemStore
	fail atomic.Bool
}

func (f *flakyMeta) Get(k blobmeta.NodeKey) (blobmeta.Node, bool, error) {
	if f.fail.Load() {
		return blobmeta.Node{}, false, errPlane
	}
	return f.MemStore.Get(k)
}

func (f *flakyMeta) Peek(k blobmeta.NodeKey) (blobmeta.Node, bool, error) {
	if f.fail.Load() {
		return blobmeta.Node{}, false, errPlane
	}
	return f.MemStore.Peek(k)
}

// TestSweepAbortsOnMarkErrors: a transient (non-not-found) error from
// the version manager or the metadata store during mark must abort the
// sweep — never silently skip the BLOB, whose live chunks would then be
// unmarked and purged. Regression: mark used to `continue` on any
// Versions/Tree error.
func TestSweepAbortsOnMarkErrors(t *testing.T) {
	meta := &flakyMeta{MemStore: blobmeta.NewMemStore("m1", nil, nil)}
	vm := vmanager.New(meta)
	fvm := &flakyVM{VersionManager: vm}
	pm := pmanager.New(pmanager.WithTTL(0))
	p := provider.New("p00", "z0", 0)
	if err := pm.Register(pmanager.Info{ID: "p00", Zone: "z0"}); err != nil {
		t.Fatal(err)
	}
	dir := client.DirectoryFunc(func(context.Context, string) (client.Conn, error) {
		return p, nil
	})
	cl := client.New("alice", vm, pm, dir)
	m := gc.New(fvm, testProviders{m: map[string]*provider.Provider{"p00": p}},
		gc.WithGraceEpochs(0))

	info, err := cl.Create(context.Background(), 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(context.Background(), info.ID, 0, bytes.Repeat([]byte{'x'}, 1024)); err != nil {
		t.Fatal(err)
	}
	want := p.Stats().Chunks
	if want == 0 {
		t.Fatal("no chunks stored")
	}
	ctx := context.Background()

	fvm.failVersions.Store(true)
	if _, err := m.Sweep(ctx, false); !errors.Is(err, errPlane) {
		t.Fatalf("sweep with failing Versions: %v, want errPlane", err)
	}
	if got := p.Stats().Chunks; got != want {
		t.Fatalf("failing Versions purged a live blob: %d chunks, want %d", got, want)
	}
	// An aborted pass must not advance the sweep epoch: repeated
	// transient failures would otherwise age unpublished writers out of
	// their grace protection without any sweep completing.
	if e, err := p.Epoch(ctx); err != nil || e != 0 {
		t.Fatalf("epoch after aborted sweep = %d (%v), want 0", e, err)
	}
	fvm.failVersions.Store(false)

	fvm.failTree.Store(true)
	if _, err := m.Sweep(ctx, false); !errors.Is(err, errPlane) {
		t.Fatalf("sweep with failing Tree: %v, want errPlane", err)
	}
	if got := p.Stats().Chunks; got != want {
		t.Fatalf("failing Tree purged a live blob: %d chunks, want %d", got, want)
	}
	fvm.failTree.Store(false)

	meta.fail.Store(true)
	if _, err := m.Sweep(ctx, false); !errors.Is(err, errPlane) {
		t.Fatalf("sweep with failing node store: %v, want errPlane", err)
	}
	if got := p.Stats().Chunks; got != want {
		t.Fatalf("failing node store purged a live blob: %d chunks, want %d", got, want)
	}
	meta.fail.Store(false)

	rep, err := m.Sweep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live != want || rep.Swept != 0 || p.Stats().Chunks != want {
		t.Fatalf("healthy sweep = %+v (chunks %d), want Live %d", rep, p.Stats().Chunks, want)
	}
}

// reachableNodes returns the distinct node keys reachable from the given
// versions of a BLOB (the expected survivors of a metadata sweep).
func reachableNodes(t *testing.T, vm *vmanager.Manager, blob uint64, roots ...blobmeta.Root) int {
	t.Helper()
	tree, err := vm.Tree(blob)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[blobmeta.NodeKey]struct{}{}
	for _, root := range roots {
		err := tree.WalkNodes(root,
			func(k blobmeta.NodeKey) bool { _, ok := seen[k]; return ok },
			func(k blobmeta.NodeKey, _ blobmeta.Node) error {
				seen[k] = struct{}{}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	return len(seen)
}

// rootOf returns the address of one retained version's tree.
func rootOf(t *testing.T, vm *vmanager.Manager, blob, version uint64) blobmeta.Root {
	t.Helper()
	tree, err := vm.Tree(blob)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.Version(blob, version)
	if err != nil {
		t.Fatal(err)
	}
	return tree.Root(v.Version, v.Size)
}

// TestNodeSweepAcceptance: the metadata sweep reclaims every node
// reachable only from retired or deleted versions — the node store's
// Len returns to the exact expected baseline — and never drops a node
// reachable from a retained, pinned, or deferred version.
func TestNodeSweepAcceptance(t *testing.T) {
	c := newCluster(t, core.Options{Providers: 3, Monitoring: false, GCGraceEpochs: -1})
	cl := c.Client("alice")
	ctx := context.Background()
	meta := c.VM.MetaStore()

	// Blob A: four versions fully overwriting the same four slots, so
	// each superseded version's leaves are reachable only from itself.
	a, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := cl.Write(ctx, a.ID, 0, bytes.Repeat([]byte{byte('a' + i)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.VM.SetRetention(a.ID, vmanager.Retention{KeepLast: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC.EnforceRetention(ctx, t0); err != nil {
		t.Fatal(err)
	}
	wantA := reachableNodes(t, c.VM, a.ID, rootOf(t, c.VM, a.ID, 4))
	rep, err := c.GC.Sweep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodesSwept == 0 {
		t.Fatalf("retirement sweep reclaimed no nodes: %+v", rep)
	}
	if got := meta.Len(); got != wantA {
		t.Fatalf("nodes after retirement sweep = %d, want %d (reachable from v4)", got, wantA)
	}

	// Blob B: a version that is retired *while pinned* (the pin/retire
	// race) keeps all its nodes and chunks until the pin drains.
	b, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.Write(ctx, b.ID, 0, bytes.Repeat([]byte{byte('p' + i)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	b1, b2 := rootOf(t, c.VM, b.ID, 1), rootOf(t, c.VM, b.ID, 2)
	if err := c.GC.Pin(b.ID, b1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VM.RetireVersions(b.ID, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	wantBBoth := reachableNodes(t, c.VM, b.ID, b1, b2)
	chunksBefore := totalChunks(c)
	rep, err = c.GC.Sweep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swept != 0 || totalChunks(c) != chunksBefore {
		t.Fatalf("sweep dropped a pinned-retired version's chunks: %+v", rep)
	}
	if got := meta.Len(); got != wantA+wantBBoth {
		t.Fatalf("nodes with pinned-retired version = %d, want %d", got, wantA+wantBBoth)
	}

	// Pin drains: v1's exclusive nodes and chunks become reclaimable.
	c.GC.Unpin(b.ID, 1)
	wantB := reachableNodes(t, c.VM, b.ID, b2)
	if _, err := c.GC.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}
	if got := meta.Len(); got != wantA+wantB {
		t.Fatalf("nodes after pin drain = %d, want %d", got, wantA+wantB)
	}

	// Deferred: a deleted-but-pinned BLOB keeps every node until the
	// last pin drains, then a sweep reclaims them all and the version
	// manager forgets the BLOB.
	bh, err := cl.Open(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := bh.NewReader(ctx, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.GC.DeleteBlob(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}
	if got := meta.Len(); got != wantA+wantB {
		t.Fatalf("nodes while deferred = %d, want %d (deferred blob's nodes protected)", got, wantA+wantB)
	}
	if _, err := io.Copy(io.Discard, rd); err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}
	if got := meta.Len(); got != wantB {
		t.Fatalf("nodes after drain sweep = %d, want %d (deleted blob reclaimed)", got, wantB)
	}
	if got := c.VM.DeletedBlobs(); len(got) != 0 {
		t.Fatalf("deleted blobs not forgotten: %v", got)
	}

	// Delete B too: the node store returns to exactly empty.
	if err := c.GC.DeleteBlob(ctx, b.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}
	if got := meta.Len(); got != 0 {
		t.Fatalf("nodes after deleting everything = %d, want 0", got)
	}
	if got := totalChunks(c); got != 0 {
		t.Fatalf("chunks after deleting everything = %d, want 0", got)
	}
}

// TestNodeSweepAcrossDoublings: one BLOB grows 1 → 2 → 3 → 5 chunks —
// three doublings of its tree's root span — with overwrites in between,
// under KeepLast 2. After every write the node store holds exactly what
// the two retained versions reach through their own roots: the retired
// small-root versions, the old roots nothing newer references and the
// spines that carried them are reclaimed, the old roots still shared as
// subtrees stay, and both retained versions read back whole. Deleting the
// BLOB leaves nothing.
func TestNodeSweepAcrossDoublings(t *testing.T) {
	const cs = 256
	c := newCluster(t, core.Options{Providers: 3, Monitoring: false, GCGraceEpochs: -1})
	cl := c.Client("alice")
	ctx := context.Background()
	meta := c.VM.MetaStore()
	info, err := cl.Create(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VM.SetRetention(info.ID, vmanager.Retention{KeepLast: 2}); err != nil {
		t.Fatal(err)
	}
	// Each step writes whole chunks at a chunk offset; contents[v] is what
	// version v must read as.
	contents := [][]byte{nil}
	spans := []int64{0}
	swept := 0
	for step, w := range []struct{ at, chunks, span int64 }{
		{0, 1, 1}, {1, 1, 2}, {0, 1, 2}, {2, 1, 4}, {1, 2, 4}, {3, 2, 8}, {4, 1, 8}, {0, 5, 8},
	} {
		data := bytes.Repeat([]byte{byte('a' + step)}, int(w.chunks*cs))
		for i := int64(0); i < w.chunks; i++ {
			data[i*cs] = byte(i) // distinct chunks within a write
		}
		if _, err := cl.Write(ctx, info.ID, w.at*cs, data); err != nil {
			t.Fatal(err)
		}
		prev := contents[len(contents)-1]
		next := make([]byte, max(int64(len(prev)), (w.at+w.chunks)*cs))
		copy(next, prev)
		copy(next[w.at*cs:], data)
		contents, spans = append(contents, next), append(spans, w.span)

		if _, err := c.GC.EnforceRetention(ctx, t0); err != nil {
			t.Fatal(err)
		}
		rep, err := c.GC.Sweep(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		swept += rep.NodesSwept
		versions, err := c.VM.Versions(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		var roots []blobmeta.Root
		for _, v := range versions {
			if v.Version == 0 {
				continue
			}
			root := rootOf(t, c.VM, info.ID, v.Version)
			if root.Span != spans[v.Version] {
				t.Fatalf("v%d: root span %d, want %d", v.Version, root.Span, spans[v.Version])
			}
			roots = append(roots, root)
			got, err := cl.Read(ctx, info.ID, v.Version, 0, v.Size)
			if err != nil || !bytes.Equal(got, contents[v.Version]) {
				t.Fatalf("step %d: v%d reads %d bytes (err %v), want the %d written", step, v.Version, len(got), err, len(contents[v.Version]))
			}
		}
		if len(roots) != min(step+1, 2) {
			t.Fatalf("step %d: %d versions retained, want %d", step, len(roots), min(step+1, 2))
		}
		if got, want := meta.Len(), reachableNodes(t, c.VM, info.ID, roots...); got != want {
			t.Fatalf("step %d: %d nodes stored, the retained versions reach %d", step, got, want)
		}
	}
	if swept == 0 {
		t.Fatal("no node was ever reclaimed")
	}
	if err := c.GC.DeleteBlob(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}
	if meta.Len() != 0 || totalChunks(c) != 0 {
		t.Fatalf("after delete: %d nodes and %d chunks remain, want 0 and 0", meta.Len(), totalChunks(c))
	}
}

// TestParallelMarkMatchesNaiveWalk is the end-to-end equivalence
// harness: over a randomized population of multi-version BLOBs
// (overwrites, appends, holes, retirements), the chunks surviving a
// sweep driven by the pruned parallel mark are exactly the chunks a
// naive per-version Walk enumerates — orphans die, live chunks live.
func TestParallelMarkMatchesNaiveWalk(t *testing.T) {
	c := newCluster(t, core.Options{Providers: 3, Monitoring: false, GCGraceEpochs: -1})
	cl := c.Client("alice")
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))

	for b := 0; b < 10; b++ {
		info, err := cl.Create(ctx, 128)
		if err != nil {
			t.Fatal(err)
		}
		nVers := rng.Intn(5) + 1
		for v := 0; v < nVers; v++ {
			switch rng.Intn(3) {
			case 0: // overwrite at a random chunk-aligned offset
				off := int64(rng.Intn(8)) * 128
				data := []byte(fmt.Sprintf("b%d-v%d-ow-%032d", b, v, rng.Int63()))
				if _, err := cl.Write(ctx, info.ID, off, data); err != nil {
					t.Fatal(err)
				}
			case 1: // append
				data := bytes.Repeat([]byte{byte(rng.Intn(256))}, 128*(rng.Intn(3)+1))
				if _, err := cl.Append(ctx, info.ID, data); err != nil {
					t.Fatal(err)
				}
			default: // sparse write far out (holes in between)
				off := int64(rng.Intn(64)+16) * 128
				data := []byte(fmt.Sprintf("b%d-v%d-sp-%032d", b, v, rng.Int63()))
				if _, err := cl.Write(ctx, info.ID, off, data); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Random retirement of a non-latest version.
		if nVers > 2 && rng.Intn(2) == 0 {
			if _, err := c.VM.RetireVersions(info.ID, []uint64{uint64(rng.Intn(nVers-1) + 1)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The naive mark: one full leaf walk per retained version.
	naive := map[chunk.ID]bool{}
	for _, blob := range c.VM.Blobs() {
		versions, err := c.VM.Versions(blob)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := c.VM.Tree(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range versions {
			if v.Version == 0 {
				continue
			}
			if err := tree.Walk(tree.Root(v.Version, v.Size), func(_ int64, d chunk.Desc) error {
				naive[d.ID] = true
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Strand orphans the sweep must kill.
	ids := c.Providers()
	for i := 0; i < 20; i++ {
		payload := []byte(fmt.Sprintf("orphan-%d", i))
		p, _ := c.Provider(ids[i%len(ids)])
		if err := p.Store(ctx, "stray", chunk.Sum(payload), payload); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := c.GC.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}

	surviving := map[chunk.ID]bool{}
	for _, id := range ids {
		p, _ := c.Provider(id)
		var after chunk.ID
		for {
			page, more, err := p.ListChunks(ctx, after, 512)
			if err != nil {
				t.Fatal(err)
			}
			for _, info := range page {
				surviving[info.ID] = true
			}
			if len(page) > 0 {
				after = page[len(page)-1].ID
			}
			if !more {
				break
			}
		}
	}
	if len(surviving) != len(naive) {
		t.Fatalf("surviving chunks %d != naive mark set %d", len(surviving), len(naive))
	}
	for id := range naive {
		if !surviving[id] {
			t.Fatalf("live chunk %s purged", id.Short())
		}
	}
}

// TestParallelMarkVsConcurrentLifecycle hammers the parallel mark
// against concurrent publishes, deletes, retention and pin-drains under
// -race, then checks convergence: once everything is deleted, sweeps
// drive providers to zero chunks and the metadata store to zero nodes.
func TestParallelMarkVsConcurrentLifecycle(t *testing.T) {
	c := newCluster(t, core.Options{Providers: 3, Monitoring: false})
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
			if _, err := c.GC.Sweep(ctx, false); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.GC.EnforceRetention(ctx, time.Now()); err != nil {
				t.Error(err)
			}
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 12; i++ {
				info, err := cl.Create(ctx, 256)
				if err != nil {
					t.Error(err)
					return
				}
				// Multi-version blob: publishes race the mark walks.
				for v := 0; v < 3; v++ {
					payload := bytes.Repeat([]byte{byte('a' + (w+i+v)%5)}, 512)
					if _, err := cl.Write(ctx, info.ID, 0, payload); err != nil {
						t.Error(err)
						return
					}
				}
				if err := c.VM.SetRetention(info.ID, vmanager.Retention{KeepLast: 2}); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					// Pinned reader rides through the delete; Close drains
					// the deferred reclaim mid-sweep.
					if b, err := cl.Open(ctx, info.ID); err == nil {
						if rd, err := b.NewReader(ctx, 0, 0, -1); err == nil {
							_ = c.GC.DeleteBlob(ctx, info.ID)
							_, _ = io.Copy(io.Discard, rd)
							_ = rd.Close()
							continue
						}
					}
				}
				_ = c.GC.DeleteBlob(ctx, info.ID)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	sweeps.Wait()

	// Everything is deleted: sweeps must converge chunks AND metadata
	// nodes to zero, and every deleted blob must end up forgotten.
	waitFor(t, "sweeps to reclaim chunks and nodes", func() bool {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
		return totalChunks(c) == 0 && c.VM.MetaStore().Len() == 0 && len(c.VM.DeletedBlobs()) == 0
	})
}

// TestSweepDryRunRemovesNothing: dry-run classifies without purging.
func TestSweepDryRunRemovesNothing(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, core.Options{Providers: 2, Monitoring: false, GCGraceEpochs: -1})
	cl := c.Client("alice")
	info, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte{'q'}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := c.GC.DeleteBlob(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	// The fast path already reclaimed exactly; strand a chunk by hand to
	// give the sweep something to find.
	var pp *provider.Provider
	for _, id := range c.Providers() {
		if p, _ := c.Provider(id); pp == nil {
			pp = p
		}
	}
	if err := pp.Store(context.Background(), "stray", chunk.Sum([]byte("stray")), []byte("stray")); err != nil {
		t.Fatal(err)
	}

	rep, err := c.GC.Sweep(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swept != 1 || !rep.DryRun {
		t.Fatalf("dry-run report = %+v, want Swept 1", rep)
	}
	if got := totalChunks(c); got != 1 {
		t.Fatalf("dry-run removed chunks: %d left, want 1", got)
	}
	// Dry-runs must not advance the sweep epoch: repeated dry-runs would
	// otherwise erode the write-in-progress grace window.
	for _, id := range c.Providers() {
		p, _ := c.Provider(id)
		if e, err := p.Epoch(context.Background()); err != nil || e != 0 {
			t.Fatalf("provider %s epoch after dry-run = %d (%v), want 0", id, e, err)
		}
	}
	rep, err = c.GC.Sweep(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swept != 1 || totalChunks(c) != 0 {
		t.Fatalf("real sweep after dry-run = %+v, chunks %d", rep, totalChunks(c))
	}
}

// TestRunnerLifecycle: the background runner passes periodically and
// stops on context cancellation.
func TestRunnerLifecycle(t *testing.T) {
	c := newCluster(t, core.Options{Providers: 2, Monitoring: false, GCGraceEpochs: -1})
	r := c.GCRunner(time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	waitFor(t, "a runner pass", func() bool { _, _, n := r.LastReports(); return n >= 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("runner returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runner did not stop on cancel")
	}
}

// BenchmarkSweep measures one mark-and-sweep pass over two populations,
// on the store BLOBSEER_PROVIDER_STORE names like the rest of the suite:
// 1 000 referenced chunks, which every pass marks, pages past and keeps,
// and a million unreferenced 64-byte orphans put straight on the
// providers, which the pass purges — the reclaim rate at a scale no
// replay workload reaches. The orphans are rebuilt outside the timer.
func BenchmarkSweep(b *testing.B) {
	ctx := context.Background()
	for _, pop := range []struct {
		name                string
		referenced, orphans int
	}{
		{"referenced=1k", 1000, 0},
		{"orphans=1M", 0, 1_000_000},
	} {
		b.Run(pop.name, func(b *testing.B) {
			c := newCluster(b, core.Options{Providers: 4, Monitoring: false, GCGraceEpochs: -1})
			if pop.referenced > 0 {
				const chunkSize = 4 << 10
				cl := c.Client("bench")
				info, err := cl.Create(ctx, chunkSize)
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, pop.referenced*chunkSize)
				for i := 0; i < pop.referenced; i++ {
					binary.LittleEndian.PutUint64(buf[i*chunkSize:], uint64(i)) // one distinct chunk per slot
				}
				if _, err := cl.Write(ctx, info.ID, 0, buf); err != nil {
					b.Fatal(err)
				}
			}
			var provs []*provider.Provider
			for _, id := range c.Providers() {
				p, _ := c.Provider(id)
				provs = append(provs, p)
			}
			orphan := make([]byte, 64)
			scanned := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < pop.orphans; j++ {
					binary.LittleEndian.PutUint64(orphan, uint64(j))
					if err := provs[j%len(provs)].Store(ctx, "stray", chunk.Sum(orphan), orphan); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				rep, err := c.GC.Sweep(ctx, false)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Swept != pop.orphans {
					b.Fatalf("swept %d chunks, want %d", rep.Swept, pop.orphans)
				}
				scanned += rep.Scanned
			}
			b.ReportMetric(float64(scanned)/b.Elapsed().Seconds(), "chunks/s")
		})
	}
}

// --- GC off the hot path --------------------------------------------

// gatedStore wraps a MemStore whose List parks until released — the
// shape of a provider inventory scan over millions of chunks. The first
// parked List closes inList so tests know the sweep is mid-pass.
type gatedStore struct {
	*provider.MemStore
	inList  chan struct{}
	release chan struct{}
	once    *sync.Once
}

func (g *gatedStore) List(after chunk.ID, limit int) ([]provider.ChunkInfo, bool) {
	g.once.Do(func() { close(g.inList) })
	<-g.release
	return g.MemStore.List(after, limit)
}

// TestForegroundOpsNotBehindSweep: with a sweep parked mid-List
// (simulating a pass over a huge inventory), an s3 DELETE, a direct
// lifecycle delete and a pinned streaming reader's Close must all
// complete within a tight bound — none of them may serialize against
// the sweep's List/Purge I/O.
func TestForegroundOpsNotBehindSweep(t *testing.T) {
	inList := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c := newCluster(t, core.Options{
		Providers: 2, Monitoring: false, GCGraceEpochs: -1,
		ProviderStore: func(string) provider.Store {
			return &gatedStore{MemStore: provider.NewMemStore(0), inList: inList, release: release, once: &once}
		},
	})
	g := s3gate.New(c)
	srv := httptest.NewServer(g)
	defer srv.Close()

	httpDo := func(method, path string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := httpDo(http.MethodPut, "/b", nil); code != http.StatusOK {
		t.Fatalf("create bucket: %d", code)
	}
	if code := httpDo(http.MethodPut, "/b/k", bytes.Repeat([]byte{'s'}, 4<<10)); code != http.StatusOK {
		t.Fatalf("put object: %d", code)
	}

	ctx := context.Background()
	cl := c.Client("alice")
	infoA, err := cl.Create(ctx, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(ctx, infoA.ID, 0, bytes.Repeat([]byte{'a'}, 4<<10)); err != nil {
		t.Fatal(err)
	}
	infoB, err := cl.Create(ctx, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'b'}, 4<<10)
	if _, err := cl.Write(ctx, infoB.ID, 0, payload); err != nil {
		t.Fatal(err)
	}
	bh, err := cl.Open(ctx, infoB.ID)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := bh.NewReader(ctx, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(rd, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// Queue a deferred reclaim behind the pin: Close below must drain it
	// while the sweep runs.
	if err := c.GC.DeleteBlob(ctx, infoB.ID); err != nil {
		t.Fatal(err)
	}

	sweepDone := make(chan error, 1)
	go func() {
		_, err := c.GC.Sweep(ctx, false)
		sweepDone <- err
	}()
	<-inList // the sweep is parked mid-inventory from here on

	const bound = 3 * time.Second
	type op struct {
		name string
		run  func() error
	}
	for _, o := range []op{
		{"s3 DELETE", func() error {
			if code := httpDo(http.MethodDelete, "/b/k", nil); code != http.StatusNoContent {
				return errors.New("unexpected status")
			}
			return nil
		}},
		{"lifecycle delete", func() error { return c.GC.DeleteBlob(ctx, infoA.ID) }},
		{"pinned close", func() error {
			if _, err := io.Copy(io.Discard, rd); err != nil {
				return err
			}
			return rd.Close()
		}},
	} {
		start := time.Now()
		done := make(chan error, 1)
		go func(f func() error) { done <- f() }(o.run)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s during sweep: %v", o.name, err)
			}
			if d := time.Since(start); d > bound {
				t.Fatalf("%s took %v behind the sweep, bound %v", o.name, d, bound)
			}
		case <-time.After(bound):
			t.Fatalf("%s did not complete within %v while the sweep ran", o.name, bound)
		}
	}
	select {
	case err := <-sweepDone:
		t.Fatalf("sweep finished early (%v): the gate never held", err)
	default:
	}
	// The pin drained: blob B's deferred reclaim already ran.
	if got := c.GC.DeferredBlobs(); len(got) != 0 {
		t.Fatalf("deferred after close = %v, want none", got)
	}

	close(release)
	if err := <-sweepDone; err != nil {
		t.Fatalf("sweep after release: %v", err)
	}
	// Everything was deleted and drained; at most one more sweep clears
	// what the parked pass classified before the deletes landed.
	if _, err := c.GC.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}
	if got := totalChunks(c); got != 0 {
		t.Fatalf("chunks after sweeps = %d, want 0", got)
	}
}

// TestDecrementVsPurgeInterleaving hammers the fence from every
// decrement path — fast-path deletes, pin-drain reclaims — while sweeps
// run in a tight loop. The race detector checks the synchronization;
// the final assertion checks no liveness was lost either way: once all
// BLOBs are deleted, sweeps converge every provider to empty.
func TestDecrementVsPurgeInterleaving(t *testing.T) {
	c := newCluster(t, core.Options{Providers: 3, Monitoring: false})
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
			if _, err := c.GC.Sweep(ctx, false); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 20; i++ {
				info, err := cl.Create(ctx, 256)
				if err != nil {
					t.Error(err)
					return
				}
				// Content shared across goroutines and iterations, so
				// the same chunk IDs are decremented, purged and
				// re-stored concurrently.
				payload := bytes.Repeat([]byte{byte('a' + (w+i)%3)}, 512)
				if _, err := cl.Write(ctx, info.ID, 0, payload); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					// Pinned reader rides through the delete; Close
					// drains the deferred reclaim mid-sweep.
					if b, err := cl.Open(ctx, info.ID); err == nil {
						if rd, err := b.NewReader(ctx, 0, 0, -1); err == nil {
							_ = c.GC.DeleteBlob(ctx, info.ID)
							_, _ = io.Copy(io.Discard, rd)
							_ = rd.Close()
							continue
						}
					}
				}
				_ = c.GC.DeleteBlob(ctx, info.ID)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	sweeps.Wait()

	// Everything is deleted: dropped decrements may have leaked
	// refcounts, but the sweep is the source of truth — a few passes
	// (the grace window, then the leftovers) must converge to empty.
	waitFor(t, "sweeps to reclaim everything", func() bool {
		if _, err := c.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
		return totalChunks(c) == 0
	})
}
