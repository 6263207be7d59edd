package replay

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"time"
)

// Conns is the number of keep-alive HTTP connections, one goroutine each.
// The sandbox has two cores; more callers would only queue on them.
const Conns = 2

const (
	chunkSize  = 1 << 20   // gateway chunk size: an 8 MiB object stripes 8 chunks
	stampEvery = 4 << 10   // a (key, generation, block) stamp every 4 KiB
	rangeLen   = 256 << 10 // Range-GET length in small-mixed
	churnSize  = 1 << 20   // read-under-gc churn object
	churnEvery = 50 * time.Millisecond
	churnKeep  = 64 // a churn object is deleted this many pairs after its PUT
	writeKeys  = 32 // large-write bucket, half per connection
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sizes is the preloaded dataset's shape. The benchmark always runs
// DefaultSizes; tests shrink it.
type Sizes struct {
	LargeCount, LargeSize int
	SmallCount, SmallSize int
}

// DefaultSizes preloads 48 × 8 MiB + 4096 × 16 KiB: 448 MiB of user data,
// ≈ 0.9 GiB on disk at two replicas. The volume is fixed and large enough
// that set-up takes over 4 s, so tens of ms of jitter stay under 3 % of it.
var DefaultSizes = Sizes{LargeCount: 48, LargeSize: 8 << 20, SmallCount: 4096, SmallSize: 16 << 10}

type keyState struct {
	gen  uint32 // PUTs generated so far; the live payload's generation
	crc  uint32
	live bool
	// unknown marks a key whose PUT or DELETE failed: the store may hold
	// either state, so verify skips it (the failure is already counted).
	unknown bool
}

// bucket is the generator's model of one S3 bucket: what each key should
// hold. A connection only ever touches the elements it owns (index ≡ conn
// mod Conns), so the slice is shared without locks.
type bucket struct {
	name    string
	id      uint8
	objSize int
	keys    []keyState
}

func newBucket(name string, id uint8, objSize, n int) *bucket {
	return &bucket{name: name, id: id, objSize: objSize, keys: make([]keyState, n)}
}

// dataset is everything the op streams are a function of: the seed's base
// bytes and the expected state of every key.
type dataset struct {
	base                        []byte // seeded random bytes, as long as the largest object
	large, small, wlarge, churn *bucket
}

func newDataset(seed int64, sz Sizes) *dataset {
	n := max(sz.LargeSize, sz.SmallSize, churnSize)
	base := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(base)
	return &dataset{
		base:   base,
		large:  newBucket("large", 1, sz.LargeSize, sz.LargeCount),
		small:  newBucket("small", 2, sz.SmallSize, sz.SmallCount),
		wlarge: newBucket("wlarge", 3, sz.LargeSize, writeKeys),
		churn:  newBucket("churn", 4, churnSize, 0),
	}
}

func (d *dataset) buckets() []*bucket { return []*bucket{d.large, d.small, d.wlarge, d.churn} }

// fill writes bytes [off, off+len(dst)) of the payload of (bucket, key, gen)
// into dst; off is a multiple of stampEvery. The payload is the seed's base
// bytes with a stamp at every 4 KiB, so no two chunks the benchmark ever
// writes are equal: chunks are content-addressed, and a repeated payload
// would dedupe and write nothing.
func (d *dataset) fill(dst []byte, b *bucket, key int, gen uint32, off int) {
	copy(dst, d.base[off:off+len(dst)])
	for p := 0; p+16 <= len(dst); p += stampEvery {
		binary.LittleEndian.PutUint32(dst[p:], uint32(b.id)<<24|uint32(key))
		binary.LittleEndian.PutUint32(dst[p+4:], gen)
		binary.LittleEndian.PutUint64(dst[p+8:], uint64(off+p))
	}
}

// OpKind is an S3 request class.
type OpKind uint8

const (
	OpGet OpKind = iota
	OpPut
	OpDelete
	OpRange
)

func (k OpKind) String() string { return [...]string{"GET", "PUT", "DELETE", "RANGE"}[k] }

// Op is one generated request with what its reply must be.
type Op struct {
	Kind   OpKind
	bucket *bucket
	Key    int
	Gen    uint32 // payload generation written (PUT) or expected (GET, RANGE)
	Size   int    // body bytes sent (PUT) or expected (GET, RANGE)
	Off    int    // RANGE offset
	CRC    uint32 // CRC32C of that body
	// Churn marks read-under-gc's paced stream: excluded from rates and
	// latencies. Due, on the PUT that opens a pair, is when the pair is due
	// to start, counted from the start of the stream.
	Churn bool
	Paced bool
	Due   time.Duration
}

// String is the op's line in the -print-ops command stream.
func (o Op) String() string {
	s := fmt.Sprintf("%s %s/k%06d", o.Kind, o.bucket.name, o.Key)
	switch o.Kind {
	case OpPut, OpGet:
		s += fmt.Sprintf(" gen=%d size=%d crc=%08x", o.Gen, o.Size, o.CRC)
	case OpRange:
		s += fmt.Sprintf(" gen=%d off=%d len=%d crc=%08x", o.Gen, o.Off, o.Size, o.CRC)
	}
	if o.Paced {
		s += fmt.Sprintf(" due=%dms", o.Due.Milliseconds())
	}
	return s
}

// put materialises the next generation of (b, key) into buf and returns the
// PUT that writes it, updating the model.
func (d *dataset) put(buf []byte, b *bucket, key int) Op {
	st := &b.keys[key]
	st.gen++
	body := buf[:b.objSize]
	d.fill(body, b, key, st.gen, 0)
	st.crc = crc32.Checksum(body, castagnoli)
	st.live = true
	return Op{Kind: OpPut, bucket: b, Key: key, Gen: st.gen, Size: b.objSize, CRC: st.crc}
}

func (d *dataset) get(b *bucket, key int) Op {
	st := b.keys[key]
	return Op{Kind: OpGet, bucket: b, Key: key, Gen: st.gen, Size: b.objSize, CRC: st.crc}
}

func (d *dataset) del(b *bucket, key int) Op {
	b.keys[key].live = false
	return Op{Kind: OpDelete, bucket: b, Key: key}
}

// opGen is one connection's op stream: a pure function of the seed, the
// workload and the connection index. next materialises a PUT's body, or a
// RANGE's expected bytes, into buf[:op.Size].
type opGen interface {
	next(buf []byte) Op
}

// Workload is one traffic mix.
type Workload struct {
	Name string
	Why  string
	// Primary is the op class latencies are taken over, so a percentile
	// never sits between two classes.
	Primary OpKind
	// GCEvery is the period of harness-driven lifecycle passes (0 = none).
	GCEvery time.Duration
	gen     func(d *dataset, conn int, r *rand.Rand) opGen
}

// Workloads is the fixed list, in the order a run without -workload takes.
var Workloads = []Workload{
	{
		Name:    "small-mixed",
		Why:     "16 KiB zipf GET/PUT/DELETE plus 256 KiB range reads: per-request fixed cost dominates, byte-moving does little",
		Primary: OpGet,
		gen:     newSmallMixed,
	},
	{
		Name:    "large-read",
		Why:     "whole 8 MiB GETs: the copy-per-hop read path and prefetch window do the work, the write path is idle",
		Primary: OpGet,
		gen:     func(d *dataset, _ int, r *rand.Rand) opGen { return &largeRead{d, r} },
	},
	{
		Name:    "large-write",
		Why:     "8 MiB PUT-overwrites with GC passes: hashing, replica fan-out, diskstore append, sweep and compaction",
		Primary: OpPut,
		GCEvery: 2 * time.Second,
		gen:     func(d *dataset, conn int, r *rand.Rand) opGen { return &largeWrite{d, conn, r} },
	},
	{
		Name:    "read-under-gc",
		Why:     "large-read on one connection while paced 20 MB/s churn and a GC pass every second contend with it for pins and locks",
		Primary: OpGet,
		GCEvery: time.Second,
		gen: func(d *dataset, conn int, r *rand.Rand) opGen {
			if conn == 0 {
				return &largeRead{d, r}
			}
			return &churn{d: d}
		},
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// streams returns each connection's generator. Connection c draws from its
// own source, seeded from (seed, c).
func (w Workload) streams(d *dataset, seed int64) [Conns]opGen {
	var out [Conns]opGen
	for c := range out {
		out[c] = w.gen(d, c, rand.New(rand.NewSource(seed*Conns+int64(c)+1)))
	}
	return out
}

// smallMixed: 60% GET, 25% PUT-overwrite, 5% DELETE, 10% 256 KiB Range-GET
// of a large object, zipf s=1.1 over the small keys the connection owns. A
// draw that lands on a deleted key re-creates it with a PUT.
type smallMixed struct {
	d    *dataset
	conn int
	r    *rand.Rand
	zipf *rand.Zipf
}

func newSmallMixed(d *dataset, conn int, r *rand.Rand) opGen {
	owned := (len(d.small.keys) - conn + Conns - 1) / Conns
	return &smallMixed{d, conn, r, rand.NewZipf(r, 1.1, 1, uint64(owned-1))}
}

func (g *smallMixed) next(buf []byte) Op {
	d := g.d
	u := g.r.Float64()
	if u >= 0.90 {
		key := g.r.Intn(len(d.large.keys))
		off := g.r.Intn(d.large.objSize/chunkSize) * chunkSize
		n := min(rangeLen, d.large.objSize-off)
		want := buf[:n]
		d.fill(want, d.large, key, d.large.keys[key].gen, off)
		return Op{Kind: OpRange, bucket: d.large, Key: key, Gen: d.large.keys[key].gen,
			Size: n, Off: off, CRC: crc32.Checksum(want, castagnoli)}
	}
	key := int(g.zipf.Uint64())*Conns + g.conn
	switch {
	case !d.small.keys[key].live || u >= 0.60 && u < 0.85:
		return d.put(buf, d.small, key)
	case u < 0.60:
		return d.get(d.small, key)
	default:
		return d.del(d.small, key)
	}
}

// largeRead GETs whole large objects, uniform keys.
type largeRead struct {
	d *dataset
	r *rand.Rand
}

func (g *largeRead) next([]byte) Op {
	return g.d.get(g.d.large, g.r.Intn(len(g.d.large.keys)))
}

// largeWrite PUT-overwrites the connection's half of wlarge, uniform keys:
// object lifetimes are geometric, so sealed segments die partially and
// compaction really copies.
type largeWrite struct {
	d    *dataset
	conn int
	r    *rand.Rand
}

func (g *largeWrite) next(buf []byte) Op {
	return g.d.put(buf, g.d.wlarge, g.r.Intn(writeKeys/Conns)*Conns+g.conn)
}

// churn is read-under-gc's paced connection: every churnEvery a unique
// 1 MiB PUT, then the DELETE of the object put churnKeep pairs earlier.
// Being paced, it makes garbage at 20 MB/s whatever the program's speed.
type churn struct {
	d       *dataset
	pairs   int
	pending bool // the pair's DELETE is next
}

func (g *churn) next(buf []byte) Op {
	b := g.d.churn
	if g.pending {
		g.pending = false
		op := g.d.del(b, g.pairs-1-churnKeep)
		op.Churn = true
		return op
	}
	b.keys = append(b.keys, keyState{})
	op := g.d.put(buf, b, g.pairs)
	op.Churn, op.Paced, op.Due = true, true, time.Duration(g.pairs)*churnEvery
	g.pairs++
	g.pending = g.pairs > churnKeep
	return op
}

// preload is the set-up stream of one connection: one PUT, handed to do, for
// every key it owns in the large and small buckets.
func (d *dataset) preload(conn int, buf []byte, do func(Op) error) error {
	for _, b := range []*bucket{d.large, d.small} {
		for k := conn; k < len(b.keys); k += Conns {
			if err := do(d.put(buf, b, k)); err != nil {
				return err
			}
		}
	}
	return nil
}

// PrintOps writes the first n ops of each connection's stream in the bssim
// idiom: first line the run configuration, then one command per line. Two
// runs with one seed print the same bytes.
func PrintOps(w io.Writer, cfg Config, n int) {
	d := newDataset(cfg.Seed, cfg.Sizes)
	buf := make([]byte, len(d.base))
	for c := 0; c < Conns; c++ {
		_ = d.preload(c, buf, func(Op) error { return nil }) // only the model is updated
	}
	fmt.Fprintf(w, "workload=%s,seed=%d,conns=%d,providers=%d,replicas=%d,chunk=%d,large=%dx%d,small=%dx%d\n",
		cfg.Workload.Name, cfg.Seed, Conns, providers, replicas, chunkSize,
		cfg.Sizes.LargeCount, cfg.Sizes.LargeSize, cfg.Sizes.SmallCount, cfg.Sizes.SmallSize)
	for c, g := range cfg.Workload.streams(d, cfg.Seed) {
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "c%d %s\n", c, g.next(buf))
		}
	}
}
