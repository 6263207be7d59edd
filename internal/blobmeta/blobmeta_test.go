package blobmeta

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
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

// chain is a BLOB's version chain under test: a tree over one-byte
// chunks (so a size is a chunk count) and the roots of the versions
// written so far; roots[0] is the empty BLOB.
type chain struct {
	t      testing.TB
	tr     *Tree
	roots  []Root
	chunks int64
}

func newChain(t testing.TB, store Store) *chain {
	return &chain{t: t, tr: NewTree(store, 1, 1), roots: []Root{{}}}
}

// write publishes the next version on top of the latest, growing the
// BLOB to hold the highest index written, and returns its root.
func (c *chain) write(w map[int64]chunk.Desc) Root {
	c.t.Helper()
	for i := range w {
		c.chunks = max(c.chunks, i+1)
	}
	root := c.tr.Root(uint64(len(c.roots)), c.chunks)
	if err := c.tr.Write(root, c.roots[len(c.roots)-1], w); err != nil {
		c.t.Fatal(err)
	}
	c.roots = append(c.roots, root)
	return root
}

// read returns slots [lo, hi) of version v through v's own root.
func (c *chain) read(v int, lo, hi int64) []chunk.Desc {
	c.t.Helper()
	got, err := c.tr.Read(c.roots[v], lo, hi)
	if err != nil {
		c.t.Fatal(err)
	}
	return got
}

// leaves returns version v's non-hole slots as Walk reports them.
func (c *chain) leaves(v int) map[int64]chunk.ID {
	c.t.Helper()
	out := map[int64]chunk.ID{}
	last := int64(-1)
	if err := c.tr.Walk(c.roots[v], func(idx int64, d chunk.Desc) error {
		if idx <= last {
			c.t.Fatalf("v%d: walk out of order: %d after %d", v, idx, last)
		}
		last, out[idx] = idx, d.ID
		return nil
	}); err != nil {
		c.t.Fatal(err)
	}
	return out
}

func memChain(t testing.TB) (*chain, *MemStore) {
	store := NewMemStore("m1", nil, nil)
	return newChain(t, store), store
}

// TestRootSpan: a version's root covers the smallest power-of-two number
// of chunk slots that holds its size, and at least one.
func TestRootSpan(t *testing.T) {
	const mib = 1 << 20
	tr := NewTree(NewMemStore("m", nil, nil), 1, mib)
	for _, c := range []struct{ size, span int64 }{
		{0, 1}, {1, 1}, {16 << 10, 1}, {mib, 1}, {mib + 1, 2}, {2 * mib, 2}, {3 * mib, 4},
		{8 * mib, 8}, {8*mib + 1, 16}, {9 * mib, 16}, {1 << 52, 1 << 32},
	} {
		if got := tr.Root(7, c.size); got != (Root{Version: 7, Span: c.span}) {
			t.Errorf("Root(7, %d) = %+v, want span %d", c.size, got, c.span)
		}
	}
}

func TestWriteRootValidation(t *testing.T) {
	tr := NewTree(NewMemStore("m", nil, nil), 1, 1)
	if err := tr.Write(Root{Version: 0, Span: 8}, Root{}, nil); err == nil {
		t.Fatal("want error for version 0")
	}
	for _, span := range []int64{0, -4, 3} {
		if err := tr.Write(Root{Version: 1, Span: span}, Root{}, nil); !errors.Is(err, ErrBadSpan) {
			t.Fatalf("span %d: want ErrBadSpan, got %v", span, err)
		}
	}
	if err := tr.Write(Root{Version: 1, Span: 8}, Root{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(Root{Version: 2, Span: 4}, Root{Version: 1, Span: 8}, nil); !errors.Is(err, ErrBadSpan) {
		t.Fatalf("root narrower than its base: want ErrBadSpan, got %v", err)
	}
	for _, idx := range []int64{8, -1} {
		err := tr.Write(Root{Version: 2, Span: 8}, Root{Version: 1, Span: 8}, map[int64]chunk.Desc{idx: desc("x")})
		if !errors.Is(err, ErrBadRange) {
			t.Fatalf("index %d: want ErrBadRange, got %v", idx, err)
		}
	}
}

func TestWriteReadSingleVersion(t *testing.T) {
	c, _ := memChain(t)
	w := map[int64]chunk.Desc{0: desc("a"), 1: desc("b"), 5: desc("c")}
	c.write(w)
	got := c.read(1, 0, 8)
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
	c, _ := memChain(t)
	c.write(map[int64]chunk.Desc{0: desc("v1-0"), 1: desc("v1-1")})
	c.write(map[int64]chunk.Desc{1: desc("v2-1"), 2: desc("v2-2")})
	v1, v2 := c.read(1, 0, 4), c.read(2, 0, 4)
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

// TestNodeCounts pins the height rule's cost: a tree is as tall as its
// BLOB is long, an overwrite copies one root-to-leaf path, and growth
// puts a new root (and the spine down to the old one) on top, sharing the
// old root like any other subtree.
func TestNodeCounts(t *testing.T) {
	full := func(n int64, tag string) map[int64]chunk.Desc {
		w := map[int64]chunk.Desc{}
		for i := int64(0); i < n; i++ {
			w[i] = desc(fmt.Sprintf("%s-%d", tag, i))
		}
		return w
	}
	created := func(store *MemStore, f func()) int {
		before := store.Len()
		f()
		return store.Len() - before
	}

	c, store := memChain(t)
	if n := created(store, func() { c.write(full(1, "one")) }); n != 1 {
		t.Fatalf("1-chunk BLOB = %d nodes, want 1", n)
	}
	if n := created(store, func() { c.write(nil) }); n != 1 {
		t.Fatalf("empty version of a 1-chunk BLOB = %d nodes, want 1 (its root)", n)
	}
	if got := c.read(2, 0, 1)[0].ID; got != desc("one-0").ID {
		t.Fatal("empty version of a 1-chunk BLOB lost the chunk")
	}

	c, store = memChain(t)
	if n := created(store, func() { c.write(full(8, "eight")) }); n != 15 {
		t.Fatalf("8-chunk BLOB = %d nodes, want 15", n)
	}
	if n := created(store, func() { c.write(map[int64]chunk.Desc{5: desc("over")}) }); n != 4 {
		t.Fatalf("overwriting one chunk of 8 created %d nodes, want 4", n)
	}
	// 8 → 9 chunks: root [0,16), its right path [8,16) [8,12) [8,10) and the
	// leaf [8,9); the left child is the old root, shared.
	old := c.roots[2]
	grown := c.write(map[int64]chunk.Desc{8: desc("ninth")})
	if got := store.Len() - 15 - 4; got != 5 {
		t.Fatalf("growing 8 → 9 chunks created %d nodes, want 5", got)
	}
	if old.Span != 8 || grown.Span != 16 {
		t.Fatalf("spans %d → %d, want 8 → 16", old.Span, grown.Span)
	}
	n, ok, err := store.Peek(NodeKey{Blob: 1, Version: grown.Version, Lo: 0, Hi: 16})
	if err != nil || !ok || n.LeftVer != old.Version || n.RightVer != grown.Version {
		t.Fatalf("new root %+v (ok=%v err=%v) does not share the old root v%d", n, ok, err, old.Version)
	}
	// 9 → 40 chunks skips a doubling: root [0,64) and the spine node [0,32)
	// above the base's [0,16), plus the path to leaf 39.
	if n := created(store, func() { c.write(map[int64]chunk.Desc{39: desc("far")}) }); n != 2+6 {
		t.Fatalf("growing 16 → 64 slots created %d nodes, want 8", n)
	}
	for v, want := range map[int]map[int64]chunk.ID{
		1: {5: desc("eight-5").ID},
		2: {5: desc("over").ID},
		3: {5: desc("over").ID, 8: desc("ninth").ID},
		4: {0: desc("eight-0").ID, 8: desc("ninth").ID, 39: desc("far").ID},
	} {
		got := c.leaves(v)
		for idx, id := range want {
			if got[idx] != id {
				t.Errorf("v%d idx %d: got %v want %v", v, idx, got[idx].Short(), id.Short())
			}
		}
	}
	if got := c.leaves(3); len(got) != 9 {
		t.Fatalf("v3 holds %d chunks, want 9", len(got))
	}
}

func TestStructuralSharing(t *testing.T) {
	c, store := memChain(t)
	w := map[int64]chunk.Desc{}
	for i := int64(0); i < 1024; i++ {
		w[i] = desc(fmt.Sprint("a", i))
	}
	c.write(w)
	before := store.Len()
	// Second version touches one leaf: node growth must be O(depth), not
	// O(tree size).
	c.write(map[int64]chunk.Desc{1: desc("b")})
	if growth, depth := store.Len()-before, 11; growth != depth { // log2(1024) + leaf
		t.Fatalf("node growth %d, want the %d nodes of one root-to-leaf path", growth, depth)
	}
}

func TestEmptyWriteCreatesReadableVersion(t *testing.T) {
	c, _ := memChain(t)
	c.write(map[int64]chunk.Desc{3: desc("x")})
	c.write(nil)
	if got := c.read(2, 0, 8); got[3].ID != desc("x").ID {
		t.Fatal("clone version lost base content")
	}
	// An empty version of an empty BLOB is one hole leaf: readable, and no
	// leaf to a walk.
	c, store := memChain(t)
	c.write(nil)
	if got := c.read(1, 0, 4); store.Len() != 1 || !got[0].ID.IsZero() || len(c.leaves(1)) != 0 {
		t.Fatalf("empty first version: %d nodes, slot 0 %v, %d leaves", store.Len(), got[0].ID.Short(), len(c.leaves(1)))
	}
	c.write(map[int64]chunk.Desc{2: desc("y")})
	if got := c.leaves(2); len(got) != 1 || got[2] != desc("y").ID {
		t.Fatalf("growth over an empty version: %v", got)
	}
}

func TestReadBadRange(t *testing.T) {
	c, _ := memChain(t)
	c.write(map[int64]chunk.Desc{7: desc("x")})
	if _, err := c.tr.Read(c.roots[1], -1, 4); !errors.Is(err, ErrBadRange) {
		t.Fatalf("want ErrBadRange, got %v", err)
	}
	if _, err := c.tr.Read(c.roots[1], 4, 2); !errors.Is(err, ErrBadRange) {
		t.Fatalf("want ErrBadRange, got %v", err)
	}
	// Past the root is a hole, not an error.
	got := c.read(1, 6, 20)
	if got[1].ID != desc("x").ID {
		t.Fatal("slot 7 lost")
	}
	for i, d := range got {
		if i != 1 && !d.ID.IsZero() {
			t.Fatalf("idx %d not a hole", 6+i)
		}
	}
}

func TestReadVersionZeroAllHoles(t *testing.T) {
	c, _ := memChain(t)
	for i, d := range c.read(0, 0, 8) {
		if !d.ID.IsZero() {
			t.Fatalf("idx %d not a hole", i)
		}
	}
}

func TestWalk(t *testing.T) {
	c, _ := memChain(t)
	c.write(map[int64]chunk.Desc{1: desc("a"), 4: desc("b"), 9: desc("c")})
	var visited []int64
	err := c.tr.Walk(c.roots[1], func(idx int64, d chunk.Desc) error {
		visited = append(visited, idx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 3 || visited[0] != 1 || visited[1] != 4 || visited[2] != 9 {
		t.Fatalf("visited=%v", visited)
	}
	// Walk error propagation.
	wantErr := errors.New("stop")
	if err := c.tr.Walk(c.roots[1], func(int64, chunk.Desc) error { return wantErr }); !errors.Is(err, wantErr) {
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
	c := newChain(t, ring)
	w := map[int64]chunk.Desc{}
	for i := int64(0); i < 64; i++ {
		w[i] = desc(fmt.Sprintf("c%d", i))
	}
	c.write(w)
	got := c.read(1, 0, 64)
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

// TestDifferentialAgainstFlatModel drives seeded random version chains —
// overwrites, appends, sparse writes far past the end, empty (aborted)
// versions — against a flat version → index → chunk model, and after
// every step checks that every version written so far, each through its
// own (smaller) root, still reads exactly what the model holds: the whole
// leaf set by Walk, and by Read a window at the front, one around every
// slot any version ever wrote, and one running off the end of the root.
func TestDifferentialAgainstFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, _ := memChain(t)
		model := []map[int64]chunk.ID{{}} // version 0: empty
		probes := map[int64]bool{}
		for step := 1; step <= 30; step++ {
			writes := map[int64]chunk.Desc{}
			put := func(idx int64) {
				writes[idx] = desc(fmt.Sprintf("s%d-v%d-%d", seed, step, idx))
				probes[idx] = true
			}
			switch op := rng.Intn(10); {
			case op < 3: // overwrite somewhere inside the BLOB
				if c.chunks > 0 {
					lo := rng.Int63n(c.chunks)
					for i := lo; i < min(c.chunks, lo+1+rng.Int63n(6)); i++ {
						put(i)
					}
				}
			case op < 6: // append at the end
				for i, n := c.chunks, 1+rng.Int63n(9); i < c.chunks+n; i++ {
					put(i)
				}
			case op < 8: // sparse write past the end, sometimes many doublings past
				far := c.chunks + 1 + rng.Int63n(40)
				if rng.Intn(3) == 0 {
					far = c.chunks + rng.Int63n(1<<uint(10+rng.Intn(24)))
				}
				put(far)
				if rng.Intn(2) == 0 {
					put(far + 2)
				}
			default: // empty version: an aborted writer
			}
			c.write(writes)
			next := map[int64]chunk.ID{}
			for k, id := range model[step-1] {
				next[k] = id
			}
			for k, d := range writes {
				next[k] = d.ID
			}
			model = append(model, next)

			for v := 0; v <= step; v++ {
				if got := c.leaves(v); !reflect.DeepEqual(got, model[v]) {
					t.Fatalf("seed %d step %d: v%d (span %d) walks %d leaves, model holds %d",
						seed, step, v, c.roots[v].Span, len(got), len(model[v]))
				}
				windows := [][2]int64{{0, 48}, {c.roots[v].Span - 2, c.roots[v].Span + 5}}
				for idx := range probes {
					windows = append(windows, [2]int64{idx - 2, idx + 3})
				}
				for _, w := range windows {
					lo := max(w[0], 0)
					for i, d := range c.read(v, lo, w[1]) {
						if want := model[v][lo+int64(i)]; d.ID != want {
							t.Fatalf("seed %d step %d: v%d (span %d) idx %d reads %v, model holds %v",
								seed, step, v, c.roots[v].Span, lo+int64(i), d.ID.Short(), want.Short())
						}
					}
				}
			}
		}
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
	c := newChain(t, cs)
	// v1 writes a wide base; v2..v5 each touch two slots, the second past
	// v1's root (so v1 is reached through a smaller root than the rest).
	w1 := map[int64]chunk.Desc{}
	for i := int64(0); i < 32; i++ {
		w1[i] = desc(fmt.Sprintf("v1-%d", i))
	}
	c.write(w1)
	for v := int64(2); v <= 5; v++ {
		c.write(map[int64]chunk.Desc{
			v:  desc(fmt.Sprintf("v%d-a", v)),
			40: desc(fmt.Sprintf("v%d-b", v)),
		})
	}

	cs.gets = 0
	visited := map[NodeKey]struct{}{}
	pruned := map[chunk.ID]bool{}
	for v := 5; v >= 1; v-- {
		err := c.tr.WalkNodes(c.roots[v],
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
	for v := 1; v <= 5; v++ {
		for _, id := range c.leaves(v) {
			naive[id] = true
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
		c, _ := memChain(t)
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
			c.write(writes)
		}
		// Random retained subset (retirement drops arbitrary versions).
		var retained []int
		for v := 1; v <= nVersions; v++ {
			if rng.Intn(3) != 0 {
				retained = append(retained, v)
			}
		}
		naive := map[chunk.ID]bool{}
		for _, v := range retained {
			for _, id := range c.leaves(v) {
				naive[id] = true
			}
		}
		visited := map[NodeKey]struct{}{}
		pruned := map[chunk.ID]bool{}
		// Walk newest-first like the mark phase.
		for i := len(retained) - 1; i >= 0; i-- {
			err := c.tr.WalkNodes(c.roots[retained[i]],
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

func TestDeepTree(t *testing.T) {
	c, store := memChain(t)
	far := int64(3_000_000_000)
	root := c.write(map[int64]chunk.Desc{0: desc("lo"), far: desc("hi")})
	if root.Span != 1<<32 || store.Len() != 1+2*32 {
		t.Fatalf("span %d, %d nodes; want 2^32 and a root over two 32-node paths", root.Span, store.Len())
	}
	if got := c.read(1, far, far+1); got[0].ID != desc("hi").ID {
		t.Fatalf("deep read: %v", got[0])
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
	sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })

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
		if keys[i-1].Compare(keys[i]) >= 0 {
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

// TestWalksEmitNoMetaGet: a maintenance scan's reads are not client
// load — neither WalkNodes (the mark walk) nor Walk (deletion, replica
// health, the dashboard) adds a meta_get event, while a client Read of
// the same tree still reports each node it fetches.
func TestWalksEmitNoMetaGet(t *testing.T) {
	rec := &instrument.Recorder{}
	c := newChain(t, NewMemStore("m1", rec, nil))
	tr, root := c.tr, c.write(map[int64]chunk.Desc{3: desc("a"), 40: desc("b")})
	metaGets := func() int {
		return len(rec.Filter(func(ev instrument.Event) bool { return ev.Op == instrument.OpMetaGet }))
	}
	before := metaGets()
	visited := 0
	if err := tr.WalkNodes(root, nil, func(NodeKey, Node) error { visited++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := tr.Walk(root, func(int64, chunk.Desc) error { visited++; return nil }); err != nil {
		t.Fatal(err)
	}
	if visited == 0 {
		t.Fatal("walk visited nothing")
	}
	if got := metaGets(); got != before {
		t.Fatalf("walks over %d nodes and leaves emitted %d meta_get events, want 0", visited, got-before)
	}
	if _, err := tr.Read(root, 3, 4); err != nil {
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
