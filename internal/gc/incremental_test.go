package gc_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/gc"
	"blobseer/internal/instrument"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

// The incremental mark keeps each BLOB's mark between passes and scans
// only the BLOBs it re-walked. These tests hold it to what a from-scratch
// pass would do (the oracle), to the fail-safe rules around the cache
// (pins, aborted passes), and to the work it may spend on a pass that
// changed little.

// countingMeta is the metadata store under the rig: it counts the mark
// walk's node reads and the keys the node sweep lists, and fails reads
// or deletes of one BLOB's nodes on demand.
type countingMeta struct {
	*blobmeta.MemStore
	peeks      atomic.Int64
	failPeek   atomic.Uint64 // BLOB whose node reads fail (0 = none)
	failDelete atomic.Uint64 // BLOB whose node deletes fail (0 = none)

	mu     sync.Mutex
	listed map[uint64]int // keys ListNodes returned, by BLOB
}

func (c *countingMeta) Peek(k blobmeta.NodeKey) (blobmeta.Node, bool, error) {
	if b := c.failPeek.Load(); b != 0 && b == k.Blob {
		return blobmeta.Node{}, false, errPlane
	}
	c.peeks.Add(1)
	return c.MemStore.Peek(k)
}

func (c *countingMeta) ListNodes(after blobmeta.NodeKey, limit int) ([]blobmeta.NodeKey, bool) {
	page, more := c.MemStore.ListNodes(after, limit)
	c.mu.Lock()
	for _, k := range page {
		c.listed[k.Blob]++
	}
	c.mu.Unlock()
	return page, more
}

func (c *countingMeta) Delete(k blobmeta.NodeKey) error {
	if b := c.failDelete.Load(); b != 0 && b == k.Blob {
		return errPlane
	}
	return c.MemStore.Delete(k)
}

// resetCounts zeroes the read and list counters.
func (c *countingMeta) resetCounts() {
	c.peeks.Store(0)
	c.mu.Lock()
	c.listed = map[uint64]int{}
	c.mu.Unlock()
}

// listedKeys returns how many keys were listed in total and how many of
// them belong to BLOBs outside want.
func (c *countingMeta) listedKeys(want map[uint64]bool) (total, foreign int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for b, n := range c.listed {
		total += n
		if !want[b] {
			foreign += n
		}
	}
	return total, foreign
}

// blobFaultVM fails Versions for one BLOB on demand: a metadata plane
// that goes down in the middle of a mark, after other BLOBs were walked.
type blobFaultVM struct {
	gc.VersionManager
	failVersions atomic.Uint64
}

func (f *blobFaultVM) Versions(blob uint64) ([]vmanager.VersionMeta, error) {
	if b := f.failVersions.Load(); b != 0 && b == blob {
		return nil, errPlane
	}
	return f.VersionManager.Versions(blob)
}

// rig is a one-process deployment small enough to count every metadata
// access: a version manager over a countingMeta, two providers, a client
// and a long-lived lifecycle manager with the grace window off (nothing
// unreferenced survives a pass, so what survives is exactly the mark).
type rig struct {
	meta  *countingMeta
	vm    *vmanager.Manager
	fvm   *blobFaultVM
	provs testProviders
	cl    *client.Client
	m     *gc.Manager
}

func newRig(t *testing.T, opts ...gc.Option) *rig {
	t.Helper()
	r := &rig{meta: &countingMeta{MemStore: blobmeta.NewMemStore("m1", nil, nil), listed: map[uint64]int{}}}
	r.vm = vmanager.New(r.meta)
	r.fvm = &blobFaultVM{VersionManager: r.vm}
	pm := pmanager.New(pmanager.WithTTL(0))
	r.provs = testProviders{m: map[string]*provider.Provider{}}
	for _, id := range []string{"p00", "p01"} {
		r.provs.m[id] = provider.New(id, "z0", 0)
		if err := pm.Register(pmanager.Info{ID: id, Zone: "z0"}); err != nil {
			t.Fatal(err)
		}
	}
	dir := client.DirectoryFunc(func(_ context.Context, id string) (client.Conn, error) {
		return r.provs.m[id], nil
	})
	r.cl = client.New("alice", r.vm, pm, dir)
	r.m = gc.New(r.fvm, r.provs, append([]gc.Option{gc.WithGraceEpochs(0)}, opts...)...)
	return r
}

// survivors lists the distinct chunk IDs the providers hold.
func (r *rig) survivors(t *testing.T) map[chunk.ID]bool {
	t.Helper()
	out := map[chunk.ID]bool{}
	for _, p := range r.provs.m {
		var after chunk.ID
		for {
			page, more, err := p.ListChunks(context.Background(), after, 512)
			if err != nil {
				t.Fatal(err)
			}
			for _, info := range page {
				out[info.ID] = true
			}
			if !more {
				break
			}
			after = page[len(page)-1].ID
		}
	}
	return out
}

// naiveMark is the reference mark: one full leaf walk per retained
// version of every live BLOB, no pruning, no cache.
func (r *rig) naiveMark(t *testing.T) map[chunk.ID]bool {
	t.Helper()
	out := map[chunk.ID]bool{}
	for _, blob := range r.vm.Blobs() {
		versions, err := r.vm.Versions(blob)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := r.vm.Tree(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range versions {
			if err := tree.Walk(tree.Root(v.Version, v.Size), func(_ int64, d chunk.Desc) error {
				out[d.ID] = true
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// reachable counts the distinct nodes reachable from a BLOB's retained
// versions: what a node sweep must leave of it.
func (r *rig) reachable(t *testing.T, blob uint64) int {
	t.Helper()
	metas, err := r.vm.Versions(blob)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := r.vm.Tree(blob)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]blobmeta.Root, len(metas))
	for i, v := range metas {
		roots[i] = tree.Root(v.Version, v.Size)
	}
	return reachableNodes(t, r.vm, blob, roots...)
}

func (r *rig) sweep(t *testing.T) gc.SweepReport {
	t.Helper()
	rep, err := r.m.Sweep(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestIncrementalMarkMatchesFreshManager is the differential oracle. A
// seeded random stream of creates, overwrites, appends, aborted writes,
// deletes, retention changes, pins and unpins runs against one
// long-lived Manager with a pass every few ops. After every pass nothing
// the naive mark reaches may be missing from the providers; after every
// pass with no pin outstanding, what is left is exactly the naive mark,
// and a fresh Manager (empty cache, so a from-scratch pass) over the
// same version manager and providers finds nothing more to sweep, chunk
// or node. Once everything is deleted, chunks, nodes, tombstones and
// leases converge to zero.
func TestIncrementalMarkMatchesFreshManager(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runOracle(t, seed)
		})
	}
}

func runOracle(t *testing.T, seed int64) {
	const (
		ops       = 420
		passEvery = 7
		chunkSize = 128
	)
	r := newRig(t)
	runner := gc.NewRunner(r.m, time.Hour)
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	type pin struct{ blob, version uint64 }
	var live []uint64
	var pins []pin
	seq := 0
	data := func(chunks int) []byte {
		seq++
		b := make([]byte, chunks*chunkSize)
		rng.Read(b)
		copy(b, fmt.Sprintf("s%d-%d", seed, seq)) // never dedupes
		return b
	}
	pick := func() (uint64, bool) {
		if len(live) == 0 {
			return 0, false
		}
		return live[rng.Intn(len(live))], true
	}
	unpinAll := func() {
		for _, p := range pins {
			r.m.Unpin(p.blob, p.version)
		}
		pins = nil
	}
	check := func(op int) {
		t.Helper()
		naive, left := r.naiveMark(t), r.survivors(t)
		for id := range naive {
			if !left[id] {
				t.Fatalf("seed %d op %d: live chunk %s purged", seed, op, id.Short())
			}
		}
		if len(pins) > 0 {
			return // pinned retired versions and deferred BLOBs keep more than the naive mark
		}
		if len(left) != len(naive) {
			t.Fatalf("seed %d op %d: %d chunks survive the pass, the naive mark reaches %d", seed, op, len(left), len(naive))
		}
		fresh, err := gc.New(r.vm, r.provs, gc.WithGraceEpochs(0)).Sweep(ctx, true)
		if err != nil {
			t.Fatalf("seed %d op %d: fresh dry-run: %v", seed, op, err)
		}
		if fresh.Swept != 0 || fresh.NodesSwept != 0 {
			t.Fatalf("seed %d op %d: a from-scratch pass would sweep %d more chunks and %d more nodes than the incremental one did",
				seed, op, fresh.Swept, fresh.NodesSwept)
		}
	}

	for op := 1; op <= ops; op++ {
		switch k := rng.Intn(20); {
		case k < 4 || len(live) == 0: // create, with a first version
			info, err := r.cl.Create(ctx, chunkSize)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.cl.Write(ctx, info.ID, 0, data(1+rng.Intn(4))); err != nil {
				t.Fatal(err)
			}
			live = append(live, info.ID)
		case k < 8: // overwrite in place: a new version over old slots
			b, _ := pick()
			if _, err := r.cl.Write(ctx, b, int64(rng.Intn(4))*chunkSize, data(1+rng.Intn(2))); err != nil {
				t.Fatal(err)
			}
		case k < 10:
			b, _ := pick()
			if _, err := r.cl.Append(ctx, b, data(1)); err != nil {
				t.Fatal(err)
			}
		case k < 11: // a writer that flushed a chunk and died: aborted version, orphan chunk
			b, _ := pick()
			tk, err := r.vm.AssignWrite(b, "ghost", 0, chunkSize)
			if err != nil {
				t.Fatal(err)
			}
			payload := data(1)
			if err := r.provs.m["p00"].Store(ctx, "ghost", chunk.Sum(payload), payload); err != nil {
				t.Fatal(err)
			}
			if err := r.vm.Abort(b, tk.Version); err != nil {
				t.Fatal(err)
			}
		case k < 14:
			i := rng.Intn(len(live))
			if err := r.m.DeleteBlob(ctx, live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		case k < 16:
			b, _ := pick()
			if err := r.vm.SetRetention(b, vmanager.Retention{KeepLast: 1 + rng.Intn(2)}); err != nil {
				t.Fatal(err)
			}
		case k < 18: // pin a retained version; retention or a delete may overtake it
			b, _ := pick()
			versions, err := r.vm.Versions(b)
			if err != nil {
				t.Fatal(err)
			}
			v := versions[rng.Intn(len(versions))].Version
			if err := r.m.Pin(b, rootOf(t, r.vm, b, v)); err != nil {
				t.Fatal(err)
			}
			pins = append(pins, pin{b, v})
		default:
			if len(pins) > 0 {
				i := rng.Intn(len(pins))
				r.m.Unpin(pins[i].blob, pins[i].version)
				pins = append(pins[:i], pins[i+1:]...)
			}
		}
		if op%passEvery != 0 {
			continue
		}
		if rng.Intn(2) == 0 {
			unpinAll()
		}
		if ret, swp := runner.Pass(ctx); ret.Err != "" || swp.Err != "" {
			t.Fatalf("seed %d op %d: pass: retention %q sweep %q", seed, op, ret.Err, swp.Err)
		}
		check(op)
	}

	unpinAll()
	for _, b := range live {
		if err := r.m.DeleteBlob(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	r.sweep(t)
	if n := len(r.survivors(t)); n != 0 {
		t.Fatalf("seed %d: %d chunks left after deleting everything", seed, n)
	}
	if n := r.meta.Len(); n != 0 {
		t.Fatalf("seed %d: %d nodes left after deleting everything", seed, n)
	}
	if d := r.vm.DeletedBlobs(); len(d) != 0 {
		t.Fatalf("seed %d: deleted BLOBs never forgotten: %v", seed, d)
	}
	if st := r.m.Stats(); st.ActiveLeases != 0 || st.Pins != 0 || st.DeferredBlobs != 0 {
		t.Fatalf("seed %d: lifecycle state left behind: %+v", seed, st)
	}
	for id, p := range r.provs.m {
		if ls, err := p.Leases(ctx); err != nil || len(ls) != 0 {
			t.Fatalf("seed %d: provider %s still holds %d leases (%v)", seed, id, len(ls), err)
		}
	}
}

// TestPinnedRetiredVersionNodesReclaimedAfterUnpin: a pinned BLOB is
// never settled. The BLOB is settled by a clean pass first, so the pin
// lands on a cached mark; its pinned version is then retired, the next
// pass keeps everything the pin reaches, and after the unpin — with no
// further version change to invalidate anything — the pass after that
// must walk the BLOB again and reclaim what only the pinned version
// reached.
func TestPinnedRetiredVersionNodesReclaimedAfterUnpin(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	info, err := r.cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte{byte('p' + i)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if rep := r.sweep(t); rep.BlobsWalked != 1 {
		t.Fatalf("cold pass walked %d BLOBs, want 1", rep.BlobsWalked)
	}
	if rep := r.sweep(t); rep.BlobsWalked != 0 || rep.BlobsReused != 1 {
		t.Fatalf("unchanged BLOB: walked %d reused %d, want 0/1", rep.BlobsWalked, rep.BlobsReused)
	}

	both := r.reachable(t, info.ID)
	if err := r.m.Pin(info.ID, rootOf(t, r.vm, info.ID, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.vm.RetireVersions(info.ID, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	chunksBefore := len(r.survivors(t))
	if rep := r.sweep(t); rep.Swept != 0 || rep.NodesSwept != 0 || rep.BlobsWalked != 1 {
		t.Fatalf("pass over a pinned retired version: %+v, want nothing swept and the BLOB walked", rep)
	}
	if got := r.meta.Len(); got != both || len(r.survivors(t)) != chunksBefore {
		t.Fatalf("pinned retired version lost nodes or chunks: %d nodes (want %d), %d chunks (want %d)",
			got, both, len(r.survivors(t)), chunksBefore)
	}
	// Still pinned, nothing changed: the pass must not take the BLOB from
	// the cache, or the unpin below would go unnoticed.
	if rep := r.sweep(t); rep.BlobsWalked != 1 {
		t.Fatalf("pinned BLOB was reused from the cache: %+v", rep)
	}

	r.m.Unpin(info.ID, 1)
	onlyV2 := r.reachable(t, info.ID)
	rep := r.sweep(t)
	if rep.BlobsWalked != 1 || rep.NodesSwept != both-onlyV2 || rep.Swept == 0 {
		t.Fatalf("pass after unpin: %+v, want the BLOB walked, %d nodes and v1's chunks swept", rep, both-onlyV2)
	}
	if got := r.meta.Len(); got != onlyV2 {
		t.Fatalf("nodes after unpin = %d, want %d (reachable from v2)", got, onlyV2)
	}
	if rep := r.sweep(t); rep.BlobsWalked != 0 || rep.BlobsReused != 1 {
		t.Fatalf("settled after the unpin pass: walked %d reused %d, want 0/1", rep.BlobsWalked, rep.BlobsReused)
	}
}

// TestAbortedPassLeavesCacheUntouched: a pass that dies in the mark — a
// Versions error on one BLOB, a node read error inside another's walk —
// purges nothing and leaves no trace in the cache, and a pass whose node
// sweep cannot delete a BLOB's nodes does not settle that BLOB. The
// clean pass that follows walks exactly the BLOBs the failed ones could
// not finish and reclaims what they left.
func TestAbortedPassLeavesCacheUntouched(t *testing.T) {
	r := newRig(t, gc.WithMarkWorkers(1))
	ctx := context.Background()
	var blobs []uint64
	for i := 0; i < 4; i++ {
		info, err := r.cl.Create(ctx, 128)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte{byte('a' + i)}, 512)); err != nil {
			t.Fatal(err)
		}
		if err := r.vm.SetRetention(info.ID, vmanager.Retention{KeepLast: 1}); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, info.ID)
	}
	if rep := r.sweep(t); rep.BlobsWalked != 4 {
		t.Fatalf("cold pass walked %d BLOBs, want 4", rep.BlobsWalked)
	}

	// Two BLOBs get a new version; retention retires the old ones, whose
	// chunks and private nodes are now garbage.
	a, b := blobs[1], blobs[2]
	for i, blob := range []uint64{a, b} {
		if _, err := r.cl.Write(ctx, blob, 0, bytes.Repeat([]byte{byte('A' + i)}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.m.EnforceRetention(ctx, time.Now()); err != nil {
		t.Fatal(err)
	}
	wantChunks, wantNodes := len(r.naiveMark(t)), 0
	for _, blob := range blobs {
		wantNodes += r.reachable(t, blob)
	}
	chunksBefore, nodesBefore := len(r.survivors(t)), r.meta.Len()
	if chunksBefore <= wantChunks || nodesBefore <= wantNodes {
		t.Fatalf("set-up left no garbage: %d/%d chunks, %d/%d nodes", chunksBefore, wantChunks, nodesBefore, wantNodes)
	}
	untouched := func(what string) {
		t.Helper()
		if c, n := len(r.survivors(t)), r.meta.Len(); c != chunksBefore || n != nodesBefore {
			t.Fatalf("%s reclaimed something: %d chunks (were %d), %d nodes (were %d)", what, c, chunksBefore, n, nodesBefore)
		}
	}

	// The mark dies at b's Versions, after a was walked (one worker, BLOBs
	// in ascending order).
	r.fvm.failVersions.Store(b)
	if _, err := r.m.Sweep(ctx, false); !errors.Is(err, errPlane) {
		t.Fatalf("sweep with failing Versions: %v, want errPlane", err)
	}
	r.fvm.failVersions.Store(0)
	untouched("a pass aborted by a Versions error")

	// The mark dies inside a's walk.
	r.meta.failPeek.Store(a)
	if _, err := r.m.Sweep(ctx, false); !errors.Is(err, errPlane) {
		t.Fatalf("sweep with failing node reads: %v, want errPlane", err)
	}
	r.meta.failPeek.Store(0)
	untouched("a pass aborted by a node read error")

	// The mark completes, the node sweep cannot delete a's dead nodes: b is
	// reclaimed and settled, a is neither.
	r.meta.failDelete.Store(a)
	rep, err := r.m.Sweep(ctx, false)
	if !errors.Is(err, errPlane) {
		t.Fatalf("sweep with failing node deletes: %v, want errPlane", err)
	}
	r.meta.failDelete.Store(0)
	if rep.BlobsWalked != 2 || rep.BlobsReused != 2 {
		t.Fatalf("pass after two aborted ones walked %d and reused %d BLOBs, want 2/2: an aborted mark must not leave marks behind", rep.BlobsWalked, rep.BlobsReused)
	}
	if got := len(r.survivors(t)); got != wantChunks {
		t.Fatalf("%d chunks after the pass, want %d", got, wantChunks)
	}
	if got := r.meta.Len(); got <= wantNodes || got >= nodesBefore {
		t.Fatalf("%d nodes after the pass with failing deletes on one BLOB, want between %d and %d", got, wantNodes, nodesBefore)
	}

	// Clean pass: only a is walked again, and its dead nodes go.
	if rep := r.sweep(t); rep.BlobsWalked != 1 || rep.BlobsReused != 3 {
		t.Fatalf("clean pass walked %d and reused %d BLOBs, want 1/3", rep.BlobsWalked, rep.BlobsReused)
	}
	if got := r.meta.Len(); got != wantNodes {
		t.Fatalf("%d nodes after the clean pass, want %d", got, wantNodes)
	}
	if rep := r.sweep(t); rep.BlobsWalked != 0 || rep.BlobsReused != 4 {
		t.Fatalf("steady state walked %d and reused %d BLOBs, want 0/4", rep.BlobsWalked, rep.BlobsReused)
	}
	for id := range r.naiveMark(t) {
		if !r.survivors(t)[id] {
			t.Fatalf("live chunk %s purged", id.Short())
		}
	}
}

// TestSteadyStatePassCostsWhatChanged is the work-count gate, no timing:
// over the replay benchmark's population — 4096 one-chunk BLOBs of one
// tree node each and 48 eight-chunk BLOBs of fifteen, 4 816 nodes — a
// pass after four objects were overwritten the way the S3 gateway does
// it (new BLOB in, old BLOB deleted) reads and lists what those BLOBs
// hold, not the dataset.
func TestSteadyStatePassCostsWhatChanged(t *testing.T) {
	const (
		chunkSize = 64
		small     = 4096
		large     = 48
		scanPage  = 64         // the node scan's page after a seek
		changing  = 2*1 + 2*15 // nodes of the two small and two large BLOBs a round writes
	)
	r := newRig(t)
	ctx := context.Background()
	seq := 0
	put := func(chunks int) uint64 {
		t.Helper()
		seq++
		info, err := r.cl.Create(ctx, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte(seq)}, chunks*chunkSize)
		copy(data, fmt.Sprintf("obj-%d", seq))
		for i := 1; i < chunks; i++ {
			copy(data[i*chunkSize:], fmt.Sprintf("obj-%d-%d", seq, i))
		}
		if _, err := r.cl.Write(ctx, info.ID, 0, data); err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	var smalls, larges []uint64
	for i := 0; i < small; i++ {
		smalls = append(smalls, put(1))
	}
	for i := 0; i < large; i++ {
		larges = append(larges, put(8))
	}
	total := r.meta.Len()
	if total != small*1+large*15 {
		t.Fatalf("the population holds %d tree nodes, want %d", total, small*1+large*15)
	}

	r.meta.resetCounts()
	cold := r.sweep(t)
	if cold.BlobsWalked != small+large || int(r.meta.peeks.Load()) != total {
		t.Fatalf("cold pass walked %d BLOBs with %d node reads, want all %d BLOBs and all %d nodes",
			cold.BlobsWalked, r.meta.peeks.Load(), small+large, total)
	}
	if listed, _ := r.meta.listedKeys(nil); listed != total {
		t.Fatalf("cold pass listed %d keys, the store holds %d", listed, total)
	}

	for round := 0; round < 3; round++ {
		changed := map[uint64]bool{}
		for i := 0; i < 2; i++ {
			for _, set := range []*[]uint64{&smalls, &larges} {
				j := (round*2 + i) % len(*set)
				old := (*set)[j]
				chunks := 1
				if set == &larges {
					chunks = 8
				}
				(*set)[j] = put(chunks)
				if err := r.m.DeleteBlob(ctx, old); err != nil {
					t.Fatal(err)
				}
				changed[old], changed[(*set)[j]] = true, true
			}
		}
		r.meta.resetCounts()
		rep := r.sweep(t)
		if rep.BlobsWalked != 4 || rep.BlobsReused != small+large-4 {
			t.Fatalf("round %d: walked %d reused %d, want 4 and %d", round, rep.BlobsWalked, rep.BlobsReused, small+large-4)
		}
		if reads := int(r.meta.peeks.Load()); reads != changing {
			t.Fatalf("round %d: steady-state pass read %d nodes, want the %d of the BLOBs written (the store holds %d)", round, reads, changing, total)
		}
		// The scan seeks to each changed BLOB and pages from there; a page
		// runs past the BLOB's last key into at most one page of
		// neighbours.
		listed, foreign := r.meta.listedKeys(changed)
		if own := listed - foreign; own != 2*changing || foreign > 8*scanPage {
			t.Fatalf("round %d: steady-state pass listed %d keys of the 8 changed BLOBs and %d of others, want %d and at most %d (the store holds %d)",
				round, own, foreign, 2*changing, 8*scanPage, total)
		}
		if rep.NodesSwept == 0 {
			t.Fatalf("round %d: the deleted BLOBs' nodes were not reclaimed: %+v", round, rep)
		}
		if d := r.vm.DeletedBlobs(); len(d) != 0 {
			t.Fatalf("round %d: deleted BLOBs not forgotten: %v", round, d)
		}
	}
	if got := r.meta.Len(); got != total {
		t.Fatalf("%d nodes after three rounds of overwrites, want the original %d", got, total)
	}
}

// TestMarkWalkIsNotClientMetadataLoad: a full pass over N BLOBs adds no
// meta_get event — the walk's reads are not client reads — and reports
// itself as one gc event carrying the nodes read and the BLOBs walked
// and reused; neither does the slot walk of a DeleteBlob; a client read
// of the same trees still reports its own.
func TestMarkWalkIsNotClientMetadataLoad(t *testing.T) {
	const n = 12
	ctx := context.Background()
	rec := &instrument.Recorder{}
	meta := blobmeta.NewMemStore("m1", rec, nil)
	vm := vmanager.New(meta)
	pm := pmanager.New(pmanager.WithTTL(0))
	p := provider.New("p00", "z0", 0)
	if err := pm.Register(pmanager.Info{ID: "p00", Zone: "z0"}); err != nil {
		t.Fatal(err)
	}
	dir := client.DirectoryFunc(func(context.Context, string) (client.Conn, error) { return p, nil })
	cl := client.New("alice", vm, pm, dir)
	m := gc.New(vm, testProviders{m: map[string]*provider.Provider{"p00": p}},
		gc.WithGraceEpochs(0), gc.WithEmitter(rec))
	for i := 0; i < n; i++ {
		info, err := cl.Create(ctx, 128)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte{byte('a' + i)}, 256)); err != nil {
			t.Fatal(err)
		}
	}
	count := func(op instrument.Op) int {
		return len(rec.Filter(func(ev instrument.Event) bool { return ev.Op == op }))
	}
	gets := count(instrument.OpMetaGet)
	if _, err := m.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}
	if got := count(instrument.OpMetaGet); got != gets {
		t.Fatalf("a pass over %d BLOBs emitted %d meta_get events, want 0", n, got-gets)
	}
	marks := rec.Filter(func(ev instrument.Event) bool { return ev.Op == instrument.OpMark })
	if len(marks) != 1 || marks[0].Actor != instrument.ActorGC ||
		int(marks[0].Value) != meta.Len() || marks[0].Offset != n || marks[0].Bytes != 0 {
		t.Fatalf("mark events = %+v, want one gc event with %d nodes read, %d BLOBs walked, 0 reused", marks, meta.Len(), n)
	}
	if _, err := m.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}
	marks = rec.Filter(func(ev instrument.Event) bool { return ev.Op == instrument.OpMark })
	if len(marks) != 2 || marks[1].Value != 0 || marks[1].Offset != 0 || marks[1].Bytes != n {
		t.Fatalf("second pass's mark event = %+v, want 0 nodes read, 0 walked, %d reused", marks[len(marks)-1], n)
	}
	blob := vm.Blobs()[0]
	if _, err := cl.Read(ctx, blob, 0, 0, 256); err != nil {
		t.Fatal(err)
	}
	if got := count(instrument.OpMetaGet); got == gets {
		t.Fatal("a client read emitted no meta_get event")
	}
	gets = count(instrument.OpMetaGet)
	if err := m.DeleteBlob(ctx, blob); err != nil {
		t.Fatal(err)
	}
	if got := count(instrument.OpMetaGet); got != gets {
		t.Fatalf("DeleteBlob emitted %d meta_get events, want 0", got-gets)
	}
}

// TestMarkConcurrentWithSweep: Mark may run beside sweeps — both replace
// the per-BLOB cache, the sweep also settles entries in it — while
// objects are overwritten underneath. Under -race; every live chunk
// must survive, and the cache must still converge to all-reused. The
// writers hold no leases here, so the grace window is on — and wide: the
// sweeps run back to back, and with one epoch of grace a write descheduled
// between its store and its publish for two of them loses its chunks (a
// few runs in a thousand did).
func TestMarkConcurrentWithSweep(t *testing.T) {
	const grace = 8
	r := newRig(t, gc.WithGraceEpochs(grace))
	ctx := context.Background()
	var blobs []uint64
	for i := 0; i < 24; i++ {
		info, err := r.cl.Create(ctx, 128)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.cl.Write(ctx, info.ID, 0, bytes.Repeat([]byte{byte(i)}, 256)); err != nil {
			t.Fatal(err)
		}
		if err := r.vm.SetRetention(info.ID, vmanager.Retention{KeepLast: 1}); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, info.ID)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := f(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	loop(func() error {
		// A Mark that listed a version just before retention retired it
		// can find the version's nodes already swept; it fails rather
		// than report a partial mark.
		if _, err := r.m.Mark(ctx); err != nil && !errors.Is(err, blobmeta.ErrCorrupted) {
			return err
		}
		return nil
	})
	loop(func() error {
		if _, err := r.m.EnforceRetention(ctx, time.Now()); err != nil {
			return err
		}
		_, err := r.m.Sweep(ctx, false)
		return err
	})
	for i := 0; i < 200; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 256)
		copy(payload, fmt.Sprintf("round-%d", i))
		if _, err := r.cl.Write(ctx, blobs[i%len(blobs)], 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if _, err := r.m.EnforceRetention(ctx, time.Now()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < grace+2; i++ { // orphans clear the grace window
		r.sweep(t)
	}
	naive, left := r.naiveMark(t), r.survivors(t)
	if len(left) != len(naive) {
		t.Fatalf("%d chunks survive, the naive mark reaches %d", len(left), len(naive))
	}
	for id := range naive {
		if !left[id] {
			t.Fatalf("live chunk %s purged", id.Short())
		}
	}
	if rep := r.sweep(t); rep.BlobsWalked != 0 || rep.BlobsReused != len(blobs) {
		t.Fatalf("quiescent pass walked %d and reused %d BLOBs, want 0/%d", rep.BlobsWalked, rep.BlobsReused, len(blobs))
	}
}
