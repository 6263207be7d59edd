package vmanager

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
)

func newMgr(t *testing.T) *Manager {
	t.Helper()
	return New(blobmeta.NewMemStore("m1", nil, nil))
}

func desc(tag string) chunk.Desc {
	return chunk.Desc{ID: chunk.Sum([]byte(tag)), Size: int64(len(tag)), Providers: []string{"p1"}}
}

func TestCreateAndInfo(t *testing.T) {
	m := newMgr(t)
	info, err := m.Create("alice", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != 1 || info.Owner != "alice" || info.ChunkSize != 64 {
		t.Fatalf("info=%+v", info)
	}
	got, err := m.Info(info.ID)
	if err != nil || got.ID != info.ID {
		t.Fatalf("Info: %+v %v", got, err)
	}
	if _, err := m.Info(99); !errors.Is(err, ErrNoBlob) {
		t.Fatalf("want ErrNoBlob, got %v", err)
	}
}

func TestCreateDefaultChunkSize(t *testing.T) {
	m := newMgr(t)
	info, err := m.Create("a", 0, false)
	if err != nil || info.ChunkSize != chunk.DefaultSize {
		t.Fatalf("info=%+v err=%v", info, err)
	}
}

func TestWritePublishRead(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("alice", 64, false)
	tk, err := m.AssignWrite(info.ID, "alice", 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	if tk.Version != 1 || tk.Offset != 0 || tk.ChunkSize != 64 {
		t.Fatalf("ticket=%+v", tk)
	}
	err = m.Publish(info.ID, tk.Version, "alice", map[int64]chunk.Desc{0: desc("c0"), 1: desc("c1")})
	if err != nil {
		t.Fatal(err)
	}
	latest, err := m.Latest(info.ID)
	if err != nil || latest.Version != 1 || latest.Size != 128 {
		t.Fatalf("latest=%+v err=%v", latest, err)
	}
	tree, err := m.Tree(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := tree.Read(tree.Root(1, latest.Size), 0, 2)
	if err != nil || ds[0].ID != desc("c0").ID || ds[1].ID != desc("c1").ID {
		t.Fatalf("read: %v %v", ds, err)
	}
}

func TestOutOfOrderPublish(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("a", 64, false)
	t1, _ := m.AssignWrite(info.ID, "a", 0, 64)
	t2, _ := m.AssignWrite(info.ID, "b", 64, 64)
	t3, _ := m.AssignWrite(info.ID, "c", 128, 64)

	// Publish 3 and 2 first: nothing visible until 1 lands.
	if err := m.Publish(info.ID, t3.Version, "c", map[int64]chunk.Desc{2: desc("c2")}); err != nil {
		t.Fatal(err)
	}
	if err := m.Publish(info.ID, t2.Version, "b", map[int64]chunk.Desc{1: desc("c1")}); err != nil {
		t.Fatal(err)
	}
	latest, _ := m.Latest(info.ID)
	if latest.Version != 0 {
		t.Fatalf("premature visibility: latest=%+v", latest)
	}
	if err := m.Publish(info.ID, t1.Version, "a", map[int64]chunk.Desc{0: desc("c0")}); err != nil {
		t.Fatal(err)
	}
	latest, _ = m.Latest(info.ID)
	if latest.Version != 3 || latest.Size != 192 {
		t.Fatalf("after drain: latest=%+v", latest)
	}
}

// TestOutOfOrderPublishAcrossDoublings: queued publications drain in
// version order whatever order they arrive in, each on a root sized by
// its own version — so a version that doubles the tree's span, queued
// behind ones that do not and ahead of one that doubles it again, still
// leaves every version readable through its own root.
func TestOutOfOrderPublishAcrossDoublings(t *testing.T) {
	store := blobmeta.NewMemStore("m1", nil, nil)
	m := New(store)
	info, _ := m.Create("a", 64, false)
	// v1: chunks 0-1 (span 2); v2: overwrites chunk 1; v3: appends chunks
	// 2-4 (span 8); v4: aborted; v5: chunk 16, sparse (span 32).
	type pub struct {
		off, n int64
		writes map[int64]chunk.Desc
	}
	pubs := []pub{
		{0, 128, map[int64]chunk.Desc{0: desc("a0"), 1: desc("a1")}},
		{64, 64, map[int64]chunk.Desc{1: desc("b1")}},
		{128, 192, map[int64]chunk.Desc{2: desc("c2"), 3: desc("c3"), 4: desc("c4")}},
		{0, 4096, nil},
		{1024, 64, map[int64]chunk.Desc{16: desc("e16")}},
	}
	for _, p := range pubs {
		if _, err := m.AssignWrite(info.ID, "a", p.off, p.n); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []uint64{5, 3, 4, 2} {
		if err := m.Publish(info.ID, v, "a", pubs[v-1].writes); err != nil {
			t.Fatalf("publish v%d: %v", v, err)
		}
		if latest, _ := m.Latest(info.ID); latest.Version != 0 {
			t.Fatalf("v%d visible before v1", latest.Version)
		}
	}
	if store.Len() != 0 {
		t.Fatalf("%d nodes written before the chain could drain", store.Len())
	}
	if err := m.Publish(info.ID, 1, "a", pubs[0].writes); err != nil {
		t.Fatal(err)
	}
	tree, _ := m.Tree(info.ID)
	v3 := map[int64]chunk.ID{0: desc("a0").ID, 1: desc("b1").ID, 2: desc("c2").ID, 3: desc("c3").ID, 4: desc("c4").ID}
	v5 := map[int64]chunk.ID{16: desc("e16").ID}
	for idx, id := range v3 {
		v5[idx] = id
	}
	want := []struct {
		size, span int64
		slots      map[int64]chunk.ID
	}{
		{128, 2, map[int64]chunk.ID{0: desc("a0").ID, 1: desc("a1").ID}},
		{128, 2, map[int64]chunk.ID{0: desc("a0").ID, 1: desc("b1").ID}},
		{320, 8, v3},
		{320, 8, v3}, // the aborted write grew nothing
		{1088, 32, v5},
	}
	for i, w := range want {
		vm, err := m.Version(info.ID, uint64(i+1))
		if err != nil || vm.Size != w.size {
			t.Fatalf("v%d: %+v %v, want size %d", i+1, vm, err, w.size)
		}
		root := tree.Root(vm.Version, vm.Size)
		if root.Span != w.span {
			t.Fatalf("v%d: root span %d, want %d", i+1, root.Span, w.span)
		}
		got := map[int64]chunk.ID{}
		if err := tree.Walk(root, func(idx int64, d chunk.Desc) error { got[idx] = d.ID; return nil }); err != nil {
			t.Fatalf("v%d: %v", i+1, err)
		}
		if !reflect.DeepEqual(got, w.slots) {
			t.Fatalf("v%d reads %d slots, want %d", i+1, len(got), len(w.slots))
		}
	}
	// v1: 3 nodes; v2: root + leaf; v3: root [0,8) over v2's root via the
	// spine node [0,4), whose right half [2,4) holds two leaves, and the
	// right path [4,8) [4,6) [4,5); v4: its root; v5: root [0,32) and spine
	// [0,16) over v4's root, and the right path of five down to leaf 16.
	if got, want := store.Len(), 3+2+(2+3+3)+1+(2+5); got != want {
		t.Fatalf("%d nodes, want %d", got, want)
	}
}

// TestPublishOutsideTheBlob: a publication carrying a slot past both the
// published size and its own assigned write is refused and stays
// publishable; one inside either bound is not.
func TestPublishOutsideTheBlob(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("a", 64, false)
	t1, _ := m.AssignWrite(info.ID, "a", 0, 100) // slots 0-1
	for _, idx := range []int64{2, -1} {
		err := m.Publish(info.ID, t1.Version, "a", map[int64]chunk.Desc{idx: desc("x")})
		if !errors.Is(err, blobmeta.ErrBadRange) {
			t.Fatalf("slot %d: want ErrBadRange, got %v", idx, err)
		}
	}
	if err := m.Publish(info.ID, t1.Version, "a", map[int64]chunk.Desc{1: desc("x")}); err != nil {
		t.Fatalf("refused publication did not stay publishable: %v", err)
	}
	// A zero-length write (a repair) may republish any slot of the
	// published BLOB.
	t2, _ := m.AssignWrite(info.ID, "fix", 0, 0)
	if err := m.Publish(info.ID, t2.Version, "fix", map[int64]chunk.Desc{1: desc("y")}); err != nil {
		t.Fatal(err)
	}
	if latest, _ := m.Latest(info.ID); latest.Version != 2 || latest.Size != 100 {
		t.Fatalf("latest=%+v", latest)
	}
}

func TestAppendResolvesDisjointOffsets(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("a", 64, false)
	t1, err := m.AssignAppend(info.ID, "u1", 100)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m.AssignAppend(info.ID, "u2", 50)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Offset != 0 || t2.Offset != 100 {
		t.Fatalf("append offsets: %d %d", t1.Offset, t2.Offset)
	}
	// A write that does not extend the tail must not move appends back.
	if _, err := m.AssignWrite(info.ID, "u3", 0, 10); err != nil {
		t.Fatal(err)
	}
	t4, _ := m.AssignAppend(info.ID, "u4", 1)
	if t4.Offset != 150 {
		t.Fatalf("tail after small overwrite: %d", t4.Offset)
	}
}

func TestPublishValidation(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("a", 64, false)
	if err := m.Publish(info.ID, 1, "a", nil); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("unassigned publish: %v", err)
	}
	tk, _ := m.AssignWrite(info.ID, "a", 0, 64)
	if err := m.Publish(info.ID, tk.Version, "a", nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Publish(info.ID, tk.Version, "a", nil); !errors.Is(err, ErrDoublePublish) {
		t.Fatalf("double publish: %v", err)
	}
	if err := m.Publish(99, 1, "a", nil); !errors.Is(err, ErrNoBlob) {
		t.Fatalf("publish to unknown blob: %v", err)
	}
	// queued duplicate
	a, _ := m.AssignWrite(info.ID, "a", 0, 64)
	b, _ := m.AssignWrite(info.ID, "a", 0, 64)
	_ = a
	if err := m.Publish(info.ID, b.Version, "a", nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Publish(info.ID, b.Version, "a", nil); !errors.Is(err, ErrDoublePublish) {
		t.Fatalf("queued double publish: %v", err)
	}
}

func TestAbortUnblocksChain(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("a", 64, false)
	t1, _ := m.AssignWrite(info.ID, "dead", 0, 64)
	t2, _ := m.AssignWrite(info.ID, "live", 64, 64)
	if err := m.Publish(info.ID, t2.Version, "live", map[int64]chunk.Desc{1: desc("x")}); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(info.ID, t1.Version); err != nil {
		t.Fatal(err)
	}
	latest, _ := m.Latest(info.ID)
	if latest.Version != 2 {
		t.Fatalf("latest=%+v", latest)
	}
	// Aborted write contributes no size.
	v1, _ := m.Version(info.ID, 1)
	if v1.Size != 0 {
		t.Fatalf("aborted version size=%d", v1.Size)
	}
}

func TestVersionsAndPending(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("a", 64, false)
	t1, _ := m.AssignWrite(info.ID, "a", 0, 64)
	if n, _ := m.PendingCount(info.ID); n != 1 {
		t.Fatalf("pending=%d", n)
	}
	if err := m.Publish(info.ID, t1.Version, "a", map[int64]chunk.Desc{0: desc("a")}); err != nil {
		t.Fatal(err)
	}
	if n, _ := m.PendingCount(info.ID); n != 0 {
		t.Fatalf("pending=%d", n)
	}
	vs, err := m.Versions(info.ID)
	if err != nil || len(vs) != 2 { // v0 + v1
		t.Fatalf("versions=%v err=%v", vs, err)
	}
	if _, err := m.Version(info.ID, 9); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("want ErrBadVersion, got %v", err)
	}
}

func TestNegativeArgs(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("a", 64, false)
	if _, err := m.AssignWrite(info.ID, "a", -1, 10); err == nil {
		t.Fatal("want error for negative offset")
	}
	if _, err := m.AssignWrite(info.ID, "a", 0, -1); err == nil {
		t.Fatal("want error for negative length")
	}
	if _, err := m.AssignAppend(info.ID, "a", -1); err == nil {
		t.Fatal("want error for negative append length")
	}
}

func TestDelete(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("a", 64, false)
	t1, _ := m.AssignWrite(info.ID, "a", 0, 128)
	if err := m.Publish(info.ID, t1.Version, "a",
		map[int64]chunk.Desc{0: desc("c0"), 1: desc("c1")}); err != nil {
		t.Fatal(err)
	}
	descs, err := m.Delete(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != 2 {
		t.Fatalf("reclaim set=%d", len(descs))
	}
	if _, err := m.Info(info.ID); !errors.Is(err, ErrDeleted) {
		t.Fatalf("want ErrDeleted, got %v", err)
	}
	if _, err := m.Latest(info.ID); !errors.Is(err, ErrDeleted) {
		t.Fatalf("want ErrDeleted, got %v", err)
	}
	ids := m.Blobs()
	if len(ids) != 0 {
		t.Fatalf("blobs=%v", ids)
	}
}

func TestBlobsSorted(t *testing.T) {
	m := newMgr(t)
	for i := 0; i < 5; i++ {
		if _, err := m.Create(fmt.Sprintf("u%d", i), 64, false); err != nil {
			t.Fatal(err)
		}
	}
	ids := m.Blobs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("unsorted: %v", ids)
		}
	}
}

func TestConcurrentWritersSerialize(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("a", 64, false)
	const writers = 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk, err := m.AssignAppend(info.ID, fmt.Sprintf("u%d", w), 64)
			if err != nil {
				errs <- err
				return
			}
			idx := tk.Offset / 64
			errs <- m.Publish(info.ID, tk.Version, "", map[int64]chunk.Desc{idx: desc(fmt.Sprintf("w%d", w))})
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	latest, _ := m.Latest(info.ID)
	if latest.Version != writers || latest.Size != writers*64 {
		t.Fatalf("latest=%+v", latest)
	}
	// Every chunk slot must be filled: appends got disjoint offsets.
	tree, _ := m.Tree(info.ID)
	ds, err := tree.Read(tree.Root(latest.Version, latest.Size), 0, writers)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if d.ID.IsZero() {
			t.Fatalf("hole at slot %d after %d appends", i, writers)
		}
	}
}

func TestEventsEmitted(t *testing.T) {
	rec := &instrument.Recorder{}
	m := New(blobmeta.NewMemStore("m1", nil, nil), WithEmitter(rec))
	info, _ := m.Create("a", 64, false)
	tk, _ := m.AssignWrite(info.ID, "a", 0, 64)
	if err := m.Publish(info.ID, tk.Version, "a", map[int64]chunk.Desc{0: desc("x")}); err != nil {
		t.Fatal(err)
	}
	want := map[instrument.Op]bool{}
	for _, e := range rec.Events() {
		want[e.Op] = true
	}
	for _, op := range []instrument.Op{instrument.OpCreate, instrument.OpAssign, instrument.OpPublish} {
		if !want[op] {
			t.Errorf("missing event %s", op)
		}
	}
}

// TestDeleteDedupsByChunkID pins Delete's documented behavior: the
// reclaim set is deduplicated by chunk ID, so slots repeating the same
// content — within one version or across versions — appear once. Callers
// needing per-slot exactness use DeleteExact.
func TestDeleteDedupsByChunkID(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("a", 64, false)
	t1, _ := m.AssignWrite(info.ID, "a", 0, 128)
	// Two slots, identical content: one Desc after dedup.
	if err := m.Publish(info.ID, t1.Version, "a",
		map[int64]chunk.Desc{0: desc("same"), 1: desc("same")}); err != nil {
		t.Fatal(err)
	}
	t2, _ := m.AssignWrite(info.ID, "a", 0, 64)
	// A second version rewrites slot 0 with the same content again.
	if err := m.Publish(info.ID, t2.Version, "a",
		map[int64]chunk.Desc{0: desc("same")}); err != nil {
		t.Fatal(err)
	}
	descs, err := m.Delete(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != 1 {
		t.Fatalf("dedup reclaim set = %d descs, want 1", len(descs))
	}
}

// TestDeleteExactPerSlot: DeleteExact returns per-version per-slot
// descriptors, so repeated content appears once per slot and a
// single-version caller can balance refcounts exactly.
func TestDeleteExactPerSlot(t *testing.T) {
	m := newMgr(t)
	info, _ := m.Create("a", 64, false)
	t1, _ := m.AssignWrite(info.ID, "a", 0, 128)
	if err := m.Publish(info.ID, t1.Version, "a",
		map[int64]chunk.Desc{0: desc("same"), 1: desc("same")}); err != nil {
		t.Fatal(err)
	}
	t2, _ := m.AssignWrite(info.ID, "a", 128, 64)
	if err := m.Publish(info.ID, t2.Version, "a",
		map[int64]chunk.Desc{2: desc("tail")}); err != nil {
		t.Fatal(err)
	}
	vs, err := m.DeleteExact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("versions = %d, want 2", len(vs))
	}
	if vs[0].Version != 1 || len(vs[0].Slots) != 2 {
		t.Fatalf("v1 = %+v, want 2 slots (repeated content kept per slot)", vs[0])
	}
	if vs[0].Slots[0].ID != vs[0].Slots[1].ID {
		t.Fatal("v1 slots should repeat the same chunk ID")
	}
	// v2 inherits v1's two slots and adds one.
	if vs[1].Version != 2 || len(vs[1].Slots) != 3 {
		t.Fatalf("v2 = %+v, want 3 slots", vs[1])
	}
	if _, err := m.Info(info.ID); !errors.Is(err, ErrDeleted) {
		t.Fatalf("want ErrDeleted, got %v", err)
	}
	if _, err := m.DeleteExact(info.ID); !errors.Is(err, ErrDeleted) {
		t.Fatalf("double DeleteExact: want ErrDeleted, got %v", err)
	}
}

// TestRetentionCandidatesAndRetire covers the policy evaluation and the
// retire operation's guard rails.
func TestRetentionCandidatesAndRetire(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	m := New(blobmeta.NewMemStore("m1", nil, nil),
		WithClock(func() time.Time { return now }))
	info, _ := m.Create("a", 64, false)
	for i := 0; i < 4; i++ {
		tk, _ := m.AssignWrite(info.ID, "a", 0, 64)
		if err := m.Publish(info.ID, tk.Version, "a",
			map[int64]chunk.Desc{0: desc(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Minute)
	}

	// No policy: no candidates.
	cands, err := m.RetentionCandidates(info.ID, now)
	if err != nil || cands != nil {
		t.Fatalf("no-policy candidates = %v, %v", cands, err)
	}

	if err := m.SetRetention(info.ID, Retention{KeepLast: 2}); err != nil {
		t.Fatal(err)
	}
	if r, _ := m.RetentionOf(info.ID); r.KeepLast != 2 {
		t.Fatalf("retention = %+v", r)
	}
	cands, err = m.RetentionCandidates(info.ID, now)
	if err != nil || len(cands) != 2 || cands[0] != 1 || cands[1] != 2 {
		t.Fatalf("keep-last candidates = %v, %v", cands, err)
	}

	// Max-age nominates everything older than the cutoff except latest.
	if err := m.SetRetention(info.ID, Retention{MaxAge: 90 * time.Second}); err != nil {
		t.Fatal(err)
	}
	cands, err = m.RetentionCandidates(info.ID, now)
	if err != nil || len(cands) != 3 {
		t.Fatalf("max-age candidates = %v, %v", cands, err)
	}

	// Guard rails: the latest version and unknown versions refuse.
	if _, err := m.RetireVersions(info.ID, []uint64{4}); !errors.Is(err, ErrRetireLatest) {
		t.Fatalf("retire latest: %v", err)
	}
	if _, err := m.RetireVersions(info.ID, []uint64{99}); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("retire unknown: %v", err)
	}
	// A bad entry poisons the whole batch.
	if _, err := m.RetireVersions(info.ID, []uint64{1, 99}); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("poisoned batch: %v", err)
	}
	if _, err := m.Version(info.ID, 1); err != nil {
		t.Fatalf("v1 must survive the failed batch: %v", err)
	}

	n, err := m.RetireVersions(info.ID, []uint64{1, 2})
	if err != nil || n != 2 {
		t.Fatalf("retire = %d, %v", n, err)
	}
	if _, err := m.Version(info.ID, 1); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("retired version readable: %v", err)
	}
	if vm, err := m.Latest(info.ID); err != nil || vm.Version != 4 {
		t.Fatalf("latest after retire = %+v, %v", vm, err)
	}
	// Versions lists only the retained ones (plus the v0 sentinel).
	vers, _ := m.Versions(info.ID)
	if len(vers) != 3 {
		t.Fatalf("versions after retire = %v", vers)
	}
}

// TestDeletedBlobsAndForget covers the node sweep's bookkeeping surface:
// deleted BLOBs stay listed until Forget, live BLOBs refuse to be
// forgotten, and MetaStore exposes the tree persistence.
func TestDeletedBlobsAndForget(t *testing.T) {
	store := blobmeta.NewMemStore("m1", nil, nil)
	m := New(store)
	if m.MetaStore() != blobmeta.Store(store) {
		t.Fatal("MetaStore does not expose the backing store")
	}
	a, _ := m.Create("u", 64, false)
	b, _ := m.Create("u", 64, false)
	if got := m.DeletedBlobs(); len(got) != 0 {
		t.Fatalf("deleted before any delete = %v", got)
	}
	if err := m.Forget(a.ID); err == nil {
		t.Fatal("forgetting a live blob must refuse")
	}
	if _, err := m.DeleteExact(a.ID); err != nil {
		t.Fatal(err)
	}
	if got := m.DeletedBlobs(); len(got) != 1 || got[0] != a.ID {
		t.Fatalf("deleted = %v, want [%d]", got, a.ID)
	}
	if got := m.Blobs(); len(got) != 1 || got[0] != b.ID {
		t.Fatalf("live = %v, want [%d]", got, b.ID)
	}
	if err := m.Forget(a.ID); err != nil {
		t.Fatal(err)
	}
	if got := m.DeletedBlobs(); len(got) != 0 {
		t.Fatalf("deleted after forget = %v", got)
	}
	// Idempotent: a sweep may retry.
	if err := m.Forget(a.ID); err != nil {
		t.Fatalf("second forget: %v", err)
	}
}

// TestHoldVersionBlocksRetire: a held version is atomically protected
// from retirement — RetireVersions skips it while any hold is
// outstanding and retires it once the last hold drains; holding a
// version that was already retired (or never existed) fails.
func TestHoldVersionBlocksRetire(t *testing.T) {
	m := New(blobmeta.NewMemStore("m1", nil, nil))
	info, _ := m.Create("a", 64, false)
	for i := 0; i < 3; i++ {
		tk, _ := m.AssignWrite(info.ID, "a", 0, 64)
		if err := m.Publish(info.ID, tk.Version, "a",
			map[int64]chunk.Desc{0: desc(fmt.Sprintf("h%d", i))}); err != nil {
			t.Fatal(err)
		}
	}

	// Two holds stack on v1.
	if err := m.HoldVersion(info.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.HoldVersion(info.ID, 1); err != nil {
		t.Fatal(err)
	}

	// The batch retires only the unheld version; the held one is
	// silently skipped, not an error (retention retries it later).
	retired, err := m.RetireVersions(info.ID, []uint64{1, 2})
	if err != nil || retired != 1 {
		t.Fatalf("retire with hold = %d, %v, want 1 (v2 only)", retired, err)
	}
	if _, err := m.Version(info.ID, 1); err != nil {
		t.Fatalf("held version gone after retire batch: %v", err)
	}

	// One release is not enough; the second drains the hold.
	m.ReleaseVersion(info.ID, 1)
	if retired, _ := m.RetireVersions(info.ID, []uint64{1}); retired != 0 {
		t.Fatalf("retired %d versions with a hold still outstanding", retired)
	}
	m.ReleaseVersion(info.ID, 1)
	retired, err = m.RetireVersions(info.ID, []uint64{1})
	if err != nil || retired != 1 {
		t.Fatalf("retire after drain = %d, %v, want 1", retired, err)
	}

	// Hold-vs-retire atomicity from the loser's side: the version is
	// gone, so the hold must fail rather than register uselessly.
	if err := m.HoldVersion(info.ID, 1); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("hold of retired version: %v", err)
	}
	// Releasing versions of unknown blobs is a tolerated no-op (the
	// blob may have been deleted under the writer).
	m.ReleaseVersion(999, 1)
}
