package blobmeta

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
)

func desc(tag string) chunk.Desc {
	return chunk.Desc{ID: chunk.Sum([]byte(tag)), Size: int64(len(tag)), Providers: []string{"p1"}}
}

func newTestTree(t *testing.T, span int64) *Tree {
	t.Helper()
	tr, err := NewTree(NewMemStore("m1", nil, nil), 1, span)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTreeSpanValidation(t *testing.T) {
	if _, err := NewTree(NewMemStore("m", nil, nil), 1, 3); !errors.Is(err, ErrBadSpan) {
		t.Fatalf("want ErrBadSpan, got %v", err)
	}
	tr, err := NewTree(NewMemStore("m", nil, nil), 1, 0)
	if err != nil || tr.Span() != DefaultSpan {
		t.Fatalf("default span: %v %d", err, tr.Span())
	}
}

func TestWriteReadSingleVersion(t *testing.T) {
	tr := newTestTree(t, 16)
	w := map[int64]chunk.Desc{0: desc("a"), 1: desc("b"), 5: desc("c")}
	if err := tr.Write(1, 0, w); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Read(1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		want, ok := w[i]
		if ok && got[i].ID != want.ID {
			t.Errorf("idx %d: got %v want %v", i, got[i].ID.Short(), want.ID.Short())
		}
		if !ok && !got[i].ID.IsZero() {
			t.Errorf("idx %d: want hole, got %v", i, got[i].ID.Short())
		}
	}
}

func TestVersionIsolation(t *testing.T) {
	tr := newTestTree(t, 8)
	if err := tr.Write(1, 0, map[int64]chunk.Desc{0: desc("v1-0"), 1: desc("v1-1")}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(2, 1, map[int64]chunk.Desc{1: desc("v2-1"), 2: desc("v2-2")}); err != nil {
		t.Fatal(err)
	}
	v1, err := tr.Read(1, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := tr.Read(2, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v1[1].ID != desc("v1-1").ID {
		t.Error("v1 leaked a v2 write")
	}
	if !v1[2].ID.IsZero() {
		t.Error("v1 should have a hole at idx 2")
	}
	if v2[0].ID != desc("v1-0").ID {
		t.Error("v2 lost the shared v1 chunk")
	}
	if v2[1].ID != desc("v2-1").ID || v2[2].ID != desc("v2-2").ID {
		t.Error("v2 writes missing")
	}
}

func TestStructuralSharing(t *testing.T) {
	store := NewMemStore("m1", nil, nil)
	tr, err := NewTree(store, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(1, 0, map[int64]chunk.Desc{0: desc("a")}); err != nil {
		t.Fatal(err)
	}
	before := store.Len()
	// Second version touches one leaf: node growth must be O(depth), not
	// O(tree size).
	if err := tr.Write(2, 1, map[int64]chunk.Desc{1: desc("b")}); err != nil {
		t.Fatal(err)
	}
	growth := store.Len() - before
	maxDepth := 11 // log2(1024) + leaf
	if growth > maxDepth+1 {
		t.Fatalf("node growth %d exceeds O(depth)=%d: no structural sharing", growth, maxDepth)
	}
}

func TestEmptyWriteCreatesReadableVersion(t *testing.T) {
	tr := newTestTree(t, 8)
	if err := tr.Write(1, 0, map[int64]chunk.Desc{3: desc("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(2, 1, nil); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Read(2, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got[3].ID != desc("x").ID {
		t.Fatal("clone version lost base content")
	}
}

func TestWriteVersionZeroRejected(t *testing.T) {
	tr := newTestTree(t, 8)
	if err := tr.Write(0, 0, nil); err == nil {
		t.Fatal("want error for version 0")
	}
}

func TestWriteOutOfRange(t *testing.T) {
	tr := newTestTree(t, 8)
	err := tr.Write(1, 0, map[int64]chunk.Desc{8: desc("x")})
	if !errors.Is(err, ErrBadRange) {
		t.Fatalf("want ErrBadRange, got %v", err)
	}
	err = tr.Write(1, 0, map[int64]chunk.Desc{-1: desc("x")})
	if !errors.Is(err, ErrBadRange) {
		t.Fatalf("want ErrBadRange, got %v", err)
	}
}

func TestReadBadRange(t *testing.T) {
	tr := newTestTree(t, 8)
	if _, err := tr.Read(1, -1, 4); !errors.Is(err, ErrBadRange) {
		t.Fatalf("want ErrBadRange, got %v", err)
	}
	if _, err := tr.Read(1, 4, 2); !errors.Is(err, ErrBadRange) {
		t.Fatalf("want ErrBadRange, got %v", err)
	}
	if _, err := tr.Read(1, 0, 9); !errors.Is(err, ErrBadRange) {
		t.Fatalf("want ErrBadRange, got %v", err)
	}
}

func TestReadVersionZeroAllHoles(t *testing.T) {
	tr := newTestTree(t, 8)
	got, err := tr.Read(0, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range got {
		if !d.ID.IsZero() {
			t.Fatalf("idx %d not a hole", i)
		}
	}
}

func TestDescAt(t *testing.T) {
	tr := newTestTree(t, 8)
	if err := tr.Write(1, 0, map[int64]chunk.Desc{2: desc("x")}); err != nil {
		t.Fatal(err)
	}
	d, ok, err := tr.DescAt(1, 2)
	if err != nil || !ok || d.ID != desc("x").ID {
		t.Fatalf("DescAt: %v %v %v", d, ok, err)
	}
	_, ok, err = tr.DescAt(1, 3)
	if err != nil || ok {
		t.Fatalf("hole DescAt: ok=%v err=%v", ok, err)
	}
}

func TestWalk(t *testing.T) {
	tr := newTestTree(t, 16)
	w := map[int64]chunk.Desc{1: desc("a"), 4: desc("b"), 9: desc("c")}
	if err := tr.Write(1, 0, w); err != nil {
		t.Fatal(err)
	}
	var visited []int64
	err := tr.Walk(1, 0, 16, func(idx int64, d chunk.Desc) error {
		visited = append(visited, idx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 3 || visited[0] != 1 || visited[1] != 4 || visited[2] != 9 {
		t.Fatalf("visited=%v", visited)
	}
	// Bounded walk.
	visited = nil
	if err := tr.Walk(1, 2, 9, func(idx int64, d chunk.Desc) error {
		visited = append(visited, idx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(visited) != 1 || visited[0] != 4 {
		t.Fatalf("bounded visited=%v", visited)
	}
	// Walk error propagation.
	wantErr := errors.New("stop")
	if err := tr.Walk(1, 0, 16, func(int64, chunk.Desc) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("walk error: %v", err)
	}
}

func TestRingShardsAndRoundTrip(t *testing.T) {
	stores := make([]Store, 4)
	for i := range stores {
		stores[i] = NewMemStore(fmt.Sprintf("m%d", i), nil, nil)
	}
	ring, err := NewRing(stores...)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(ring, 7, 256)
	if err != nil {
		t.Fatal(err)
	}
	w := map[int64]chunk.Desc{}
	for i := int64(0); i < 64; i++ {
		w[i] = desc(fmt.Sprintf("c%d", i))
	}
	if err := tr.Write(1, 0, w); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Read(1, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if got[i].ID != w[i].ID {
			t.Fatalf("idx %d mismatch", i)
		}
	}
	// Distribution sanity: all shards should hold something.
	shards := ring.Shards()
	total := 0
	for i, n := range shards {
		if n == 0 {
			t.Errorf("shard %d is empty: %v", i, shards)
		}
		total += n
	}
	if total != ring.Len() {
		t.Fatalf("Len mismatch: %d vs %d", ring.Len(), total)
	}
}

func TestNewRingEmpty(t *testing.T) {
	if _, err := NewRing(); err == nil {
		t.Fatal("want error for empty ring")
	}
}

// Property: after a random sequence of versioned writes, reading any
// version reflects exactly the writes up to that version (read-your-writes
// plus snapshot isolation).
func TestSnapshotSemanticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const span = 64
		tr, err := NewTree(NewMemStore("m", nil, nil), 1, span)
		if err != nil {
			return false
		}
		// model[v][idx] = expected desc at version v
		model := []map[int64]chunk.ID{{}} // version 0: empty
		nVersions := rng.Intn(6) + 2
		for v := 1; v <= nVersions; v++ {
			writes := map[int64]chunk.Desc{}
			nw := rng.Intn(8)
			for i := 0; i < nw; i++ {
				idx := int64(rng.Intn(span))
				writes[idx] = desc(fmt.Sprintf("s%d-v%d-i%d", seed, v, idx))
			}
			if err := tr.Write(uint64(v), uint64(v-1), writes); err != nil {
				return false
			}
			next := map[int64]chunk.ID{}
			for k, id := range model[v-1] {
				next[k] = id
			}
			for k, d := range writes {
				next[k] = d.ID
			}
			model = append(model, next)
		}
		for v := 0; v <= nVersions; v++ {
			got, err := tr.Read(uint64(v), 0, span)
			if err != nil {
				return false
			}
			for i := int64(0); i < span; i++ {
				want, ok := model[v][i]
				if ok && got[i].ID != want {
					return false
				}
				if !ok && !got[i].ID.IsZero() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestHashKeyMatchesFNV pins the inline hash to the reference FNV-1a
// sequence the ring historically used (key words serialized
// little-endian through hash/fnv), so replacing the allocation per
// access did not reshuffle every shard assignment.
func TestHashKeyMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		k := NodeKey{
			Blob: rng.Uint64(), Version: rng.Uint64(),
			Lo: int64(rng.Uint64()), Hi: int64(rng.Uint64()),
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range []uint64{k.Blob, k.Version, uint64(k.Lo), uint64(k.Hi)} {
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		if got, want := hashKey(k), h.Sum64(); got != want {
			t.Fatalf("hashKey(%v) = %#x, reference fnv = %#x", k, got, want)
		}
	}
}

// TestRingAccessZeroAllocs: the per-access hash runs on every metadata
// Get/Put; it must not allocate.
func TestRingAccessZeroAllocs(t *testing.T) {
	stores := make([]Store, 3)
	for i := range stores {
		stores[i] = NewMemStore(fmt.Sprintf("m%d", i), nil, nil)
	}
	ring, err := NewRing(stores...)
	if err != nil {
		t.Fatal(err)
	}
	k := NodeKey{Blob: 9, Version: 4, Lo: 0, Hi: 64}
	if err := ring.Put(k, Node{LeftVer: 1}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = hashKey(k) }); n != 0 {
		t.Fatalf("hashKey allocates %.1f per run", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, err := ring.Get(k); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ring Get allocates %.1f per run", n)
	}
}

// pageAll drains a store's keys through ListNodes at the default page
// size.
func pageAll(s Store) []NodeKey {
	var out []NodeKey
	var after NodeKey
	for {
		page, more := s.ListNodes(after, 0)
		out = append(out, page...)
		if !more || len(page) == 0 {
			return out
		}
		after = page[len(page)-1]
	}
}

// TestStoreListDelete: paging enumerates every key once, Delete removes
// (absent keys a no-op), Len stays consistent — through a Ring of
// MemStores.
func TestStoreListDelete(t *testing.T) {
	stores := make([]Store, 3)
	for i := range stores {
		stores[i] = NewMemStore(fmt.Sprintf("m%d", i), nil, nil)
	}
	ring, err := NewRing(stores...)
	if err != nil {
		t.Fatal(err)
	}
	var ns Store = ring
	keys := make([]NodeKey, 0, 100)
	for i := int64(0); i < 100; i++ {
		k := NodeKey{Blob: uint64(i % 7), Version: uint64(i), Lo: i, Hi: i + 1}
		keys = append(keys, k)
		if err := ns.Put(k, Node{Leaf: true}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ns.Len(); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}
	got := map[NodeKey]bool{}
	for _, k := range pageAll(ns) {
		if got[k] {
			t.Fatalf("duplicate key in enumeration: %v", k)
		}
		got[k] = true
	}
	if len(got) != 100 {
		t.Fatalf("paged %d keys, want 100", len(got))
	}
	for _, k := range keys[:40] {
		if err := ns.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Delete(NodeKey{Blob: 999}); err != nil {
		t.Fatalf("deleting absent key: %v", err)
	}
	if got := ns.Len(); got != 60 {
		t.Fatalf("Len after deletes = %d, want 60", got)
	}
	for _, k := range keys[:40] {
		if _, ok, _ := ns.Get(k); ok {
			t.Fatalf("deleted key still present: %v", k)
		}
	}
	for _, k := range keys[40:] {
		if _, ok, _ := ns.Get(k); !ok {
			t.Fatalf("surviving key vanished: %v", k)
		}
	}
}

// countingStore counts the walk's node reads (Peeks), to prove the
// pruned walk never re-descends a shared subtree.
type countingStore struct {
	Store
	gets int
}

func (c *countingStore) Peek(k NodeKey) (Node, bool, error) {
	c.gets++
	return c.Store.Peek(k)
}

// TestWalkNodesPrunesSharedSubtrees: walking all versions of a BLOB with
// a shared visited set costs exactly one Get per distinct node, and the
// union of visited leaves equals every version's Walk output.
func TestWalkNodesPrunesSharedSubtrees(t *testing.T) {
	mem := NewMemStore("m1", nil, nil)
	cs := &countingStore{Store: mem}
	tr, err := NewTree(cs, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	// v1 writes a wide base; v2..v5 each touch two slots.
	w1 := map[int64]chunk.Desc{}
	for i := int64(0); i < 32; i++ {
		w1[i] = desc(fmt.Sprintf("v1-%d", i))
	}
	if err := tr.Write(1, 0, w1); err != nil {
		t.Fatal(err)
	}
	for v := uint64(2); v <= 5; v++ {
		w := map[int64]chunk.Desc{
			int64(v): desc(fmt.Sprintf("v%d-a", v)),
			40:       desc(fmt.Sprintf("v%d-b", v)),
		}
		if err := tr.Write(v, v-1, w); err != nil {
			t.Fatal(err)
		}
	}

	cs.gets = 0
	visited := map[NodeKey]struct{}{}
	pruned := map[chunk.ID]bool{}
	for v := uint64(5); v >= 1; v-- {
		err := tr.WalkNodes(v,
			func(k NodeKey) bool { _, seen := visited[k]; return seen },
			func(k NodeKey, n Node) error {
				visited[k] = struct{}{}
				if n.Leaf && !n.Desc.ID.IsZero() {
					pruned[n.Desc.ID] = true
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	if cs.gets != len(visited) {
		t.Fatalf("pruned walks did %d reads over %d distinct nodes: shared subtrees re-descended", cs.gets, len(visited))
	}
	if got, want := len(visited), mem.Len(); got != want {
		t.Fatalf("visited %d nodes, store holds %d: coverage gap", got, want)
	}
	naive := map[chunk.ID]bool{}
	for v := uint64(1); v <= 5; v++ {
		if err := tr.Walk(v, 0, tr.Span(), func(_ int64, d chunk.Desc) error {
			naive[d.ID] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(naive) != len(pruned) {
		t.Fatalf("pruned chunk set %d != naive %d", len(pruned), len(naive))
	}
	for id := range naive {
		if !pruned[id] {
			t.Fatalf("naive chunk %v missing from pruned set", id.Short())
		}
	}
}

// Property: for any random version chain (overwrites, appends, holes)
// and any retained subset of versions, the shared-subtree-pruned
// node walk reaches exactly the chunk-ID set a naive per-version Walk
// reaches.
func TestPrunedWalkEquivalenceRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const span = 128
		tr, err := NewTree(NewMemStore("m", nil, nil), 1, span)
		if err != nil {
			return false
		}
		nVersions := rng.Intn(10) + 2
		tail := int64(0) // append frontier
		for v := 1; v <= nVersions; v++ {
			writes := map[int64]chunk.Desc{}
			switch rng.Intn(3) {
			case 0: // overwrite a random region
				lo := int64(rng.Intn(span / 2))
				for i := lo; i < lo+int64(rng.Intn(8)); i++ {
					writes[i] = desc(fmt.Sprintf("s%d-v%d-%d", seed, v, i))
				}
			case 1: // append past the frontier
				n := int64(rng.Intn(6))
				for i := tail; i < tail+n && i < span; i++ {
					writes[i] = desc(fmt.Sprintf("s%d-v%d-%d", seed, v, i))
				}
				tail += n
			default: // scattered holes-and-slots
				for i := 0; i < rng.Intn(5); i++ {
					idx := int64(rng.Intn(span))
					writes[idx] = desc(fmt.Sprintf("s%d-v%d-%d", seed, v, idx))
				}
			}
			if err := tr.Write(uint64(v), uint64(v-1), writes); err != nil {
				return false
			}
		}
		// Random retained subset (retirement drops arbitrary versions).
		var retained []uint64
		for v := 1; v <= nVersions; v++ {
			if rng.Intn(3) != 0 {
				retained = append(retained, uint64(v))
			}
		}
		naive := map[chunk.ID]bool{}
		for _, v := range retained {
			if err := tr.Walk(v, 0, span, func(_ int64, d chunk.Desc) error {
				naive[d.ID] = true
				return nil
			}); err != nil {
				return false
			}
		}
		visited := map[NodeKey]struct{}{}
		pruned := map[chunk.ID]bool{}
		// Walk newest-first like the mark phase.
		for i := len(retained) - 1; i >= 0; i-- {
			err := tr.WalkNodes(retained[i],
				func(k NodeKey) bool { _, seen := visited[k]; return seen },
				func(k NodeKey, n Node) error {
					visited[k] = struct{}{}
					if n.Leaf && !n.Desc.ID.IsZero() {
						pruned[n.Desc.ID] = true
					}
					return nil
				})
			if err != nil {
				return false
			}
		}
		if len(pruned) != len(naive) {
			return false
		}
		for id := range naive {
			if !pruned[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDeepTreeDefaultSpan(t *testing.T) {
	tr := newTestTree(t, 0) // DefaultSpan = 2^32
	far := int64(3_000_000_000)
	if err := tr.Write(1, 0, map[int64]chunk.Desc{0: desc("lo"), far: desc("hi")}); err != nil {
		t.Fatal(err)
	}
	d, ok, err := tr.DescAt(1, far)
	if err != nil || !ok || d.ID != desc("hi").ID {
		t.Fatalf("deep read: %v %v %v", d, ok, err)
	}
}

// TestListNodesPagingOrderAndCompleteness: ListNodes pages the full key
// set in (Blob, Version, Lo, Hi) order with no duplicates or gaps, for
// both a single MemStore and a Ring (whose pages merge shard pages),
// at several page sizes including ones that straddle stripe boundaries.
func TestListNodesPagingOrderAndCompleteness(t *testing.T) {
	mem := NewMemStore("m1", nil, nil)
	stores := make([]Store, 3)
	for i := range stores {
		stores[i] = NewMemStore(fmt.Sprintf("r%d", i), nil, nil)
	}
	ring, err := NewRing(stores...)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	want := make([]NodeKey, 0, 500)
	seen := map[NodeKey]bool{}
	for len(want) < 500 {
		k := NodeKey{
			Blob:    uint64(rng.Intn(9)),
			Version: uint64(1 + rng.Intn(50)),
			Lo:      int64(rng.Intn(64)),
		}
		k.Hi = k.Lo + int64(1+rng.Intn(8))
		if seen[k] {
			continue
		}
		seen[k] = true
		want = append(want, k)
		if err := mem.Put(k, Node{Leaf: true}); err != nil {
			t.Fatal(err)
		}
		if err := ring.Put(k, Node{Leaf: true}); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(want, func(i, j int) bool { return nodeKeyCmp(want[i], want[j]) < 0 })

	for _, ns := range []Store{mem, ring} {
		for _, limit := range []int{1, 7, 128, 1000} {
			var got []NodeKey
			var after NodeKey
			for {
				page, more := ns.ListNodes(after, limit)
				if len(page) > limit {
					t.Fatalf("page of %d exceeds limit %d", len(page), limit)
				}
				got = append(got, page...)
				if !more {
					break
				}
				if len(page) == 0 {
					t.Fatal("more=true with an empty page")
				}
				after = page[len(page)-1]
			}
			if len(got) != len(want) {
				t.Fatalf("limit %d: paged %d keys, want %d", limit, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("limit %d: order diverges at %d: %v vs %v", limit, i, got[i], want[i])
				}
			}
		}
	}
}

// TestListNodesDeleteDuringPaging: keys deleted behind the cursor never
// reappear, keys ahead of it disappear from later pages — the property
// the gc node sweep relies on while deleting as it pages.
func TestListNodesDeleteDuringPaging(t *testing.T) {
	mem := NewMemStore("m1", nil, nil)
	var keys []NodeKey
	for i := int64(0); i < 200; i++ {
		k := NodeKey{Blob: 1, Version: uint64(i + 1), Lo: 0, Hi: 1}
		keys = append(keys, k)
		if err := mem.Put(k, Node{Leaf: true}); err != nil {
			t.Fatal(err)
		}
	}
	var got []NodeKey
	var after NodeKey
	for {
		page, more := mem.ListNodes(after, 10)
		for _, k := range page {
			got = append(got, k)
			if err := mem.Delete(k); err != nil { // sweep-style: delete as we go
				t.Fatal(err)
			}
		}
		if !more {
			break
		}
		after = page[len(page)-1]
	}
	if len(got) != len(keys) {
		t.Fatalf("delete-as-you-page visited %d keys, want %d", len(got), len(keys))
	}
	if mem.Len() != 0 {
		t.Fatalf("%d keys survived a full delete sweep", mem.Len())
	}
}

// TestListNodesDefaultPageDrain: draining at the default page size
// (limit 0) agrees with Len and stays strictly ascending across pages.
func TestListNodesDefaultPageDrain(t *testing.T) {
	mem := NewMemStore("m1", nil, nil)
	for i := int64(0); i < 300; i++ {
		k := NodeKey{Blob: uint64(i % 5), Version: uint64(i + 1), Lo: i % 16, Hi: i%16 + 1}
		if err := mem.Put(k, Node{Leaf: true}); err != nil {
			t.Fatal(err)
		}
	}
	keys := pageAll(mem)
	if len(keys) != mem.Len() {
		t.Fatalf("paged %d keys, Len says %d", len(keys), mem.Len())
	}
	for i := 1; i < len(keys); i++ {
		if nodeKeyCmp(keys[i-1], keys[i]) >= 0 {
			t.Fatal("drained keys not strictly ascending")
		}
	}
}

// TestListNodesBlobRange: NodeKey{Blob: b} sorts before every stored key
// of BLOB b and after every key of the BLOBs below it (version 0 is
// never stored), so paging from it yields b's keys first — the range
// scan the gc node sweep runs per BLOB.
func TestListNodesBlobRange(t *testing.T) {
	stores := make([]Store, 4)
	for i := range stores {
		stores[i] = NewMemStore(fmt.Sprintf("r%d", i), nil, nil)
	}
	ring, err := NewRing(stores...)
	if err != nil {
		t.Fatal(err)
	}
	const blobs, perBlob = 20, 33
	for b := uint64(1); b <= blobs; b++ {
		for i := int64(0); i < perBlob; i++ {
			if err := ring.Put(NodeKey{Blob: b, Version: 1 + uint64(i%3), Lo: i, Hi: i + 1}, Node{Leaf: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, limit := range []int{5, 33, 64} {
		for b := uint64(1); b <= blobs; b++ {
			n := 0
			after := NodeKey{Blob: b}
		scan:
			for {
				page, more := ring.ListNodes(after, limit)
				for _, k := range page {
					if k.Blob < b {
						t.Fatalf("limit %d: scan of blob %d returned %v", limit, b, k)
					}
					if k.Blob != b {
						break scan
					}
					n++
				}
				if !more {
					break
				}
				after = page[len(page)-1]
			}
			if n != perBlob {
				t.Fatalf("limit %d: scan of blob %d saw %d keys, want %d", limit, b, n, perBlob)
			}
		}
	}
}

// TestWalkNodesEmitsNoMetaGet: the mark walk's reads are maintenance,
// not client load — WalkNodes adds no meta_get event, while a client
// Read of the same tree still reports each node it fetches.
func TestWalkNodesEmitsNoMetaGet(t *testing.T) {
	rec := &instrument.Recorder{}
	tr, err := NewTree(NewMemStore("m1", rec, nil), 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(1, 0, map[int64]chunk.Desc{3: desc("a"), 40: desc("b")}); err != nil {
		t.Fatal(err)
	}
	metaGets := func() int {
		return len(rec.Filter(func(ev instrument.Event) bool { return ev.Op == instrument.OpMetaGet }))
	}
	before := metaGets()
	visited := 0
	if err := tr.WalkNodes(1, nil, func(NodeKey, Node) error { visited++; return nil }); err != nil {
		t.Fatal(err)
	}
	if visited == 0 {
		t.Fatal("walk visited nothing")
	}
	if got := metaGets(); got != before {
		t.Fatalf("WalkNodes over %d nodes emitted %d meta_get events, want 0", visited, got-before)
	}
	if _, err := tr.Read(1, 3, 4); err != nil {
		t.Fatal(err)
	}
	if got := metaGets(); got == before {
		t.Fatal("client Read emitted no meta_get event")
	}
}

// BenchmarkListNodesPage pages a 4-shard ring holding 100k nodes and
// fails if a page allocates more than four times the bytes it returns:
// the merge must pull from stripes and shards what it hands out, not
// limit keys from each of them.
func BenchmarkListNodesPage(b *testing.B) {
	stores := make([]Store, 4)
	for i := range stores {
		stores[i] = NewMemStore(fmt.Sprintf("r%d", i), nil, nil)
	}
	ring, err := NewRing(stores...)
	if err != nil {
		b.Fatal(err)
	}
	const blobs, perBlob = 3125, 32 // 100k nodes
	for blob := uint64(1); blob <= blobs; blob++ {
		for i := int64(0); i < perBlob; i++ {
			if err := ring.Put(NodeKey{Blob: blob, Version: 1, Lo: i, Hi: i + 1}, Node{Leaf: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, limit := range []int{1024, 64} {
		b.Run(fmt.Sprintf("limit%d", limit), func(b *testing.B) {
			ceiling := float64(4 * limit * int(unsafe.Sizeof(NodeKey{})))
			var after NodeKey
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page, more := ring.ListNodes(after, limit)
				if len(page) != limit {
					b.Fatalf("page of %d keys, want %d", len(page), limit)
				}
				after = page[len(page)-1]
				if !more || after.Blob > blobs-100 {
					after = NodeKey{}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			if perOp := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(b.N); perOp > ceiling {
				b.Fatalf("ListNodes(limit %d) allocates %.0f B/op, ceiling %.0f", limit, perOp, ceiling)
			}
		})
	}
}
