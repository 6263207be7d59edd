// Package blobmeta implements BlobSeer's distributed metadata: a
// versioned segment tree over each BLOB's chunk-index space, whose nodes
// are immutable and distributed across metadata providers by key hash.
//
// Every BLOB version is identified by the root node of its tree, and the
// root covers only as many chunk slots as the version holds (Root): the
// tree grows by putting a new root on top. A write creates new leaves for
// the written chunk slots and copies the path to the root; all untouched
// subtrees — a smaller base root among them — are shared with earlier
// versions by referencing the version number under which they were
// created. This is what gives BlobSeer lock-free concurrent reads on any
// published version while writes proceed.
package blobmeta

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
)

// Errors returned by the metadata layer.
var (
	ErrNotFound  = errors.New("blobmeta: node not found")
	ErrBadRange  = errors.New("blobmeta: invalid range")
	ErrBadSpan   = errors.New("blobmeta: root span must be a power of two no smaller than its base's")
	ErrCorrupted = errors.New("blobmeta: corrupted tree")
)

// NodeKey identifies one immutable tree node: the subtree of blob
// `Blob`, created by version `Version`, covering chunk indices [Lo, Hi).
type NodeKey struct {
	Blob    uint64
	Version uint64
	Lo, Hi  int64
}

func (k NodeKey) String() string {
	return fmt.Sprintf("%d/v%d[%d,%d)", k.Blob, k.Version, k.Lo, k.Hi)
}

// Node is a tree node. Leaves (Hi-Lo == 1) carry a chunk descriptor;
// inner nodes reference their children by the version that created them
// (0 = hole: the child range has never been written).
type Node struct {
	Leaf              bool
	Desc              chunk.Desc
	LeftVer, RightVer uint64
}

// Store is the metadata-provider persistence interface. Nodes are
// immutable: Put of an existing key must be idempotent. Delete exists
// only so the metadata sweep (internal/gc) can drop nodes reachable
// solely from retired or deleted versions.
type Store interface {
	Put(NodeKey, Node) error
	Get(NodeKey) (Node, bool, error)
	// Peek is Get without the monitoring event: the read of a maintenance
	// scan (the garbage collector's mark walk), which introspection must
	// not count as client metadata load.
	Peek(NodeKey) (Node, bool, error)
	Len() int
	// ListNodes returns up to limit node keys strictly greater than
	// after in (Blob, Version, Lo, Hi) order, and whether more remain.
	// The zero NodeKey starts from the beginning (version 0 is reserved,
	// so no stored key compares at or below it). limit ≤ 0 selects an
	// implementation default. Keys inserted or removed concurrently may
	// or may not appear; a key present for the whole scan appears
	// exactly once.
	ListNodes(after NodeKey, limit int) ([]NodeKey, bool)
	// Delete removes a node; deleting an absent key is a no-op.
	Delete(k NodeKey) error
}

// listNodesDefaultLimit is the page size ListNodes implementations use
// when the caller passes limit ≤ 0.
const listNodesDefaultLimit = 1024

// fnv64 constants (FNV-1a), inlined so per-access hashing allocates
// nothing — hashKey runs on every metadata Get/Put via Ring.pick and the
// MemStore stripe selection.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvWord folds one key word into an FNV-1a state, byte by byte in
// little-endian order (the same sequence hash/fnv produced when the key
// words were serialized through a scratch buffer).
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// hashKey hashes a node key with zero allocations.
func hashKey(k NodeKey) uint64 {
	return fnvWord(fnvWord(fnvWord(fnvWord(fnvOffset64, k.Blob), k.Version), uint64(k.Lo)), uint64(k.Hi))
}

// memStripes is the number of lock stripes in a MemStore. Tree paths of
// one version spread across stripes, so parallel mark workers walking
// different blobs do not serialize on one lock.
const memStripes = 16

// memStripe is one independently locked shard of the node map. idx
// shadows the map's key set in sorted order so ListNodes pages without
// snapshotting the stripe.
type memStripe struct {
	mu  sync.RWMutex
	m   map[NodeKey]Node
	idx nodeIndex
}

// MemStore is an in-memory metadata provider. The node map is sharded
// into lock stripes keyed by node-key hash (a different bit range than
// Ring.pick consumes, so ring sharding does not collapse the stripes).
type MemStore struct {
	id      string
	emit    instrument.Emitter
	now     func() time.Time
	stripes [memStripes]memStripe
}

// NewMemStore returns an empty metadata provider. emit and now may be nil.
func NewMemStore(id string, emit instrument.Emitter, now func() time.Time) *MemStore {
	if emit == nil {
		emit = instrument.Nop{}
	}
	if now == nil {
		now = time.Now
	}
	s := &MemStore{id: id, emit: emit, now: now}
	for i := range s.stripes {
		s.stripes[i].m = make(map[NodeKey]Node)
	}
	return s
}

// ID returns the provider identity.
func (s *MemStore) ID() string { return s.id }

// stripe picks the lock stripe for a key, from the hash's upper bits
// (Ring.pick consumes the low bits via modulo).
func (s *MemStore) stripe(k NodeKey) *memStripe {
	return &s.stripes[(hashKey(k)>>32)&(memStripes-1)]
}

// Put stores a node (idempotent).
func (s *MemStore) Put(k NodeKey, n Node) error {
	st := s.stripe(k)
	st.mu.Lock()
	if _, ok := st.m[k]; !ok {
		st.idx.insert(k)
	}
	st.m[k] = n
	st.mu.Unlock()
	s.emit.Emit(instrument.Event{
		Time: s.now(), Actor: instrument.ActorMetaProvider, Node: s.id,
		Op: instrument.OpMetaPut, Blob: k.Blob, Version: k.Version,
	})
	return nil
}

// Get fetches a node.
func (s *MemStore) Get(k NodeKey) (Node, bool, error) {
	n, ok, err := s.Peek(k)
	s.emit.Emit(instrument.Event{
		Time: s.now(), Actor: instrument.ActorMetaProvider, Node: s.id,
		Op: instrument.OpMetaGet, Blob: k.Blob, Version: k.Version,
	})
	return n, ok, err
}

// Peek implements Store.
func (s *MemStore) Peek(k NodeKey) (Node, bool, error) {
	st := s.stripe(k)
	st.mu.RLock()
	n, ok := st.m[k]
	st.mu.RUnlock()
	return n, ok, nil
}

// Delete removes a node (absent keys are a no-op). Implements Store.
func (s *MemStore) Delete(k NodeKey) error {
	st := s.stripe(k)
	st.mu.Lock()
	if _, ok := st.m[k]; ok {
		st.idx.remove(k)
		delete(st.m, k)
	}
	st.mu.Unlock()
	return nil
}

// ListNodes implements Store: one k-way merge over the stripes'
// sorted indexes, straight into the result. Keys are hash-striped, so
// every stripe is consulted for every page; all stripes are read-locked
// for the merge (index order, so no writer — which takes one stripe —
// can deadlock against it) and only the keys returned are copied.
func (s *MemStore) ListNodes(after NodeKey, limit int) ([]NodeKey, bool) {
	if limit <= 0 {
		limit = listNodesDefaultLimit
	}
	var runs [memStripes]keyRun
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		runs[i].cur, runs[i].rest = st.idx.seek(after)
	}
	page, more := mergeRuns(runs[:], limit)
	for i := range s.stripes {
		s.stripes[i].mu.RUnlock()
	}
	return page, more
}

// keyRun is one ascending key source of a k-way merge: cur holds the
// keys in hand, rest whole batches already in memory (a stripe's
// following index blocks), and fetch — nil when there is none — brings
// the next batch from elsewhere (a ring shard's next page).
type keyRun struct {
	cur   []NodeKey
	rest  [][]NodeKey
	fetch func() []NodeKey
}

// head returns the run's next key, refilling cur as needed.
func (r *keyRun) head() (NodeKey, bool) {
	for len(r.cur) == 0 {
		switch {
		case len(r.rest) > 0:
			r.cur, r.rest = r.rest[0], r.rest[1:]
		case r.fetch != nil:
			if r.cur = r.fetch(); len(r.cur) == 0 {
				r.fetch = nil
			}
		default:
			return NodeKey{}, false
		}
	}
	return r.cur[0], true
}

// mergeRuns merges ascending key runs into one page of at most limit
// keys and reports whether any run holds a key beyond it.
func mergeRuns(runs []keyRun, limit int) ([]NodeKey, bool) {
	var out []NodeKey
	for {
		best := -1
		var bestKey NodeKey
		for i := range runs {
			if k, ok := runs[i].head(); ok && (best < 0 || nodeKeyCmp(k, bestKey) < 0) {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			return out, false
		}
		if len(out) == limit {
			return out, true
		}
		if out == nil {
			out = make([]NodeKey, 0, min(limit, listNodesDefaultLimit))
		}
		out = append(out, bestKey)
		runs[best].cur = runs[best].cur[1:]
	}
}

// Len returns the number of stored nodes.
func (s *MemStore) Len() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		n += len(st.m)
		st.mu.RUnlock()
	}
	return n
}

// Ring shards nodes across several metadata providers by key hash,
// mirroring BlobSeer's DHT-distributed metadata.
type Ring struct {
	stores []Store
}

var (
	_ Store = (*MemStore)(nil)
	_ Store = (*Ring)(nil)
)

// NewRing returns a ring over the given stores (at least one).
func NewRing(stores ...Store) (*Ring, error) {
	if len(stores) == 0 {
		return nil, errors.New("blobmeta: ring needs at least one store")
	}
	return &Ring{stores: append([]Store(nil), stores...)}, nil
}

func (r *Ring) pick(k NodeKey) Store {
	return r.stores[hashKey(k)%uint64(len(r.stores))]
}

// Put implements Store.
func (r *Ring) Put(k NodeKey, n Node) error { return r.pick(k).Put(k, n) }

// Get implements Store.
func (r *Ring) Get(k NodeKey) (Node, bool, error) { return r.pick(k).Get(k) }

// Peek implements Store.
func (r *Ring) Peek(k NodeKey) (Node, bool, error) { return r.pick(k).Peek(k) }

// Len implements Store (sum over shards).
func (r *Ring) Len() int {
	var n int
	for _, s := range r.stores {
		n += s.Len()
	}
	return n
}

// ListNodes implements Store: one k-way merge over the shards. Keys
// hash uniformly across shards, so each shard is first asked for its
// expected share of the page plus some slack and again only if it runs
// dry before the page is full: what is pulled tracks what is returned,
// not limit × shards.
func (r *Ring) ListNodes(after NodeKey, limit int) ([]NodeKey, bool) {
	if limit <= 0 {
		limit = listNodesDefaultLimit
	}
	share := limit/len(r.stores) + 1
	runs := make([]keyRun, len(r.stores))
	for i, s := range r.stores {
		c := &shardCursor{ns: s, after: after, batch: share + share/8 + 8}
		runs[i].fetch = c.nextBatch
	}
	return mergeRuns(runs, limit)
}

// shardCursor pages one ring shard forward for Ring.ListNodes.
type shardCursor struct {
	ns    Store
	after NodeKey
	batch int
	done  bool
}

func (c *shardCursor) nextBatch() []NodeKey {
	if c.done {
		return nil
	}
	page, more := c.ns.ListNodes(c.after, c.batch)
	c.done = !more
	if len(page) > 0 {
		c.after = page[len(page)-1]
	}
	return page
}

// Delete implements Store, routing to the shard that owns the key.
func (r *Ring) Delete(k NodeKey) error { return r.pick(k).Delete(k) }

// Shards returns the per-shard node counts (balance diagnostics).
func (r *Ring) Shards() []int {
	out := make([]int, len(r.stores))
	for i, s := range r.stores {
		out[i] = s.Len()
	}
	return out
}

// Root addresses one version's tree: the version number and the span of
// chunk indices [0, Span) its root node covers. The span is stored
// nowhere: it follows from the version's size (Tree.Root), and sizes
// never shrink along a version chain, so it only ever doubles. Version 0
// is the empty BLOB and has no nodes at any span.
type Root struct {
	Version uint64
	Span    int64
}

// Tree provides versioned read/write access to one BLOB's metadata.
type Tree struct {
	store     Store
	blob      uint64
	chunkSize int64
}

// NewTree returns the tree of a BLOB of the given chunk size over store.
func NewTree(store Store, blob uint64, chunkSize int64) *Tree {
	return &Tree{store: store, blob: blob, chunkSize: chunkSize}
}

// Root returns the address of a version size bytes long: its root covers
// the smallest power of two of chunk slots that holds them (at least 1),
// so a one-chunk BLOB is one node and a tree is as tall as its BLOB is long.
func (t *Tree) Root(version uint64, size int64) Root {
	span := int64(1)
	if chunks := (size + t.chunkSize - 1) / t.chunkSize; chunks > 1 {
		span = 1 << bits.Len64(uint64(chunks-1))
	}
	return Root{Version: version, Span: span}
}

// Write materializes the version root on top of base with the given
// chunk descriptors (keyed by chunk index, all inside the root's span).
// A zero base version means "empty BLOB". It creates the new leaves and
// the copied paths, sharing every untouched subtree with the base, and
// always creates the root node (so the version is readable even for
// empty writes). A root wider than the base's also gets the left spine
// down to the base's span, whose last node references the base root like
// any other shared subtree; everything to the right of it is a hole until
// written.
func (t *Tree) Write(root, base Root, writes map[int64]chunk.Desc) error {
	if root.Version == 0 {
		return errors.New("blobmeta: version 0 is reserved for the empty BLOB")
	}
	if root.Span < 1 || root.Span&(root.Span-1) != 0 || base.Version != 0 && base.Span > root.Span {
		return fmt.Errorf("%w: %d over a base of %d", ErrBadSpan, root.Span, base.Span)
	}
	idx := make([]int64, 0, len(writes))
	for i := range writes {
		if i < 0 || i >= root.Span {
			return fmt.Errorf("%w: chunk index %d outside [0,%d)", ErrBadRange, i, root.Span)
		}
		idx = append(idx, i)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	b := &builder{tree: t, newVer: root.Version, baseSpan: base.Span, writes: writes, sorted: idx}
	_, err := b.descend(0, root.Span, base.Version, true)
	return err
}

type builder struct {
	tree     *Tree
	newVer   uint64
	baseSpan int64
	writes   map[int64]chunk.Desc
	sorted   []int64
}

// anyIn reports whether a written index falls in [lo, hi).
func (b *builder) anyIn(lo, hi int64) bool {
	i := sort.Search(len(b.sorted), func(i int) bool { return b.sorted[i] >= lo })
	return i < len(b.sorted) && b.sorted[i] < hi
}

// descend builds the subtree for [lo, hi). baseVer is the version of the
// base tree's node covering exactly this range (0 = hole) — or, for a
// range wider than the base root (only ever [0, hi): the new root and its
// left spine), the base version itself, whose tree is the range's
// leftmost descendant. It returns the version under which the resulting
// subtree can be found.
func (b *builder) descend(lo, hi int64, baseVer uint64, force bool) (uint64, error) {
	above := baseVer != 0 && hi > b.baseSpan // no base node this wide to share
	if !force && !above && !b.anyIn(lo, hi) {
		return baseVer, nil // share the base subtree untouched
	}
	key := NodeKey{Blob: b.tree.blob, Version: b.newVer, Lo: lo, Hi: hi}
	if hi-lo == 1 {
		desc, ok := b.writes[lo]
		if !ok && baseVer != 0 {
			// The forced root of a one-chunk version that wrote nothing:
			// it carries the base's chunk under the new version.
			bn, err := b.tree.node(NodeKey{Blob: key.Blob, Version: baseVer, Lo: lo, Hi: hi}, false)
			if err != nil {
				return 0, err
			}
			desc = bn.Desc
		}
		if err := b.tree.store.Put(key, Node{Leaf: true, Desc: desc.Clone()}); err != nil {
			return 0, err
		}
		return b.newVer, nil
	}
	var baseLeft, baseRight uint64
	switch {
	case above:
		baseLeft = baseVer
	case baseVer != 0:
		bn, err := b.tree.node(NodeKey{Blob: key.Blob, Version: baseVer, Lo: lo, Hi: hi}, false)
		if err != nil {
			return 0, err
		}
		baseLeft, baseRight = bn.LeftVer, bn.RightVer
	}
	mid := lo + (hi-lo)/2
	lv, err := b.descend(lo, mid, baseLeft, false)
	if err != nil {
		return 0, err
	}
	rv, err := b.descend(mid, hi, baseRight, false)
	if err != nil {
		return 0, err
	}
	if err := b.tree.store.Put(key, Node{LeftVer: lv, RightVer: rv}); err != nil {
		return 0, err
	}
	return b.newVer, nil
}

// node fetches a node that must exist: through Store.Peek for a
// maintenance scan, through Store.Get — the client meter — otherwise.
func (t *Tree) node(k NodeKey, peek bool) (Node, error) {
	fetch := t.store.Get
	if peek {
		fetch = t.store.Peek
	}
	n, ok, err := fetch(k)
	if err == nil && !ok {
		err = fmt.Errorf("%w: missing node %v", ErrCorrupted, k)
	}
	return n, err
}

// Read returns the chunk descriptors for chunk indices [lo, hi) of the
// version; holes — unwritten slots, and every index at or past the root's
// span — yield zero descriptors. Version 0 yields all holes.
func (t *Tree) Read(root Root, lo, hi int64) ([]chunk.Desc, error) {
	if lo < 0 || lo > hi {
		return nil, fmt.Errorf("%w: [%d,%d)", ErrBadRange, lo, hi)
	}
	out := make([]chunk.Desc, hi-lo)
	if lo == hi {
		return out, nil
	}
	err := t.read(root.Version, 0, root.Span, lo, hi, out)
	return out, err
}

func (t *Tree) read(ver uint64, nodeLo, nodeHi, lo, hi int64, out []chunk.Desc) error {
	if ver == 0 || nodeHi <= lo || nodeLo >= hi {
		return nil
	}
	n, err := t.node(NodeKey{Blob: t.blob, Version: ver, Lo: nodeLo, Hi: nodeHi}, false)
	if err != nil {
		return err
	}
	if nodeHi-nodeLo == 1 {
		if !n.Leaf {
			return fmt.Errorf("%w: non-leaf at unit range", ErrCorrupted)
		}
		out[nodeLo-lo] = n.Desc.Clone()
		return nil
	}
	mid := nodeLo + (nodeHi-nodeLo)/2
	if err := t.read(n.LeftVer, nodeLo, mid, lo, hi, out); err != nil {
		return err
	}
	return t.read(n.RightVer, mid, nodeHi, lo, hi, out)
}

// Walk visits every non-hole leaf of a version in index order: the
// maintenance scan behind deletion, replica-health checks and the
// dashboard. Like WalkNodes it reads through Store.Peek, so it adds
// nothing to the client metadata load introspection reports.
func (t *Tree) Walk(root Root, visit func(idx int64, d chunk.Desc) error) error {
	return t.WalkNodes(root, nil, func(k NodeKey, n Node) error {
		if !n.Leaf || n.Desc.ID.IsZero() {
			return nil
		}
		return visit(k.Lo, n.Desc.Clone())
	})
}

// WalkNodes visits every tree node reachable from a version — inner
// nodes and leaves alike — as (NodeKey, Node) pairs in depth-first
// order. prune, when non-nil, is consulted with a subtree's key before
// it is fetched: returning true skips the node and its whole subtree.
//
// Pruning is what makes marking all versions of a BLOB cost O(distinct
// nodes) instead of O(versions × nodes): untouched subtrees are shared
// across versions by reference, so a caller that records visited keys
// and prunes on them re-descends each shared subtree exactly once —
// node keys are immutable identities, and a key that was visited before
// roots a subtree that was visited in full before. Version 0 (the empty
// BLOB) has no nodes.
func (t *Tree) WalkNodes(root Root, prune func(NodeKey) bool, visit func(NodeKey, Node) error) error {
	return t.walkNodes(root.Version, 0, root.Span, prune, visit)
}

func (t *Tree) walkNodes(ver uint64, lo, hi int64, prune func(NodeKey) bool, visit func(NodeKey, Node) error) error {
	if ver == 0 {
		return nil
	}
	key := NodeKey{Blob: t.blob, Version: ver, Lo: lo, Hi: hi}
	if prune != nil && prune(key) {
		return nil
	}
	n, err := t.node(key, true)
	if err != nil {
		return err
	}
	if hi-lo == 1 && !n.Leaf {
		return fmt.Errorf("%w: non-leaf at unit range", ErrCorrupted)
	}
	if err := visit(key, n); err != nil {
		return err
	}
	if hi-lo == 1 {
		return nil
	}
	mid := lo + (hi-lo)/2
	if err := t.walkNodes(n.LeftVer, lo, mid, prune, visit); err != nil {
		return err
	}
	return t.walkNodes(n.RightVer, mid, hi, prune, visit)
}
