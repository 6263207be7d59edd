package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/diskstore"
	"blobseer/internal/provider"
)

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func mustDial(t testing.TB, addr string) *Conn {
	t.Helper()
	conn, err := DialContext(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestWireRoundTripSizes stores and fetches payloads on both sides of every
// size the wire treats differently: empty, one byte, around the stream
// buffer (below it a payload is copied into the buffered write, above it
// it is written straight from the caller's slice), a full chunk, and past
// the pool's largest class.
func TestWireRoundTripSizes(t *testing.T) {
	_, srv := startProvider(t, "p1")
	conn := mustDial(t, srv.Addr())
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, wireBuf - 256, wireBuf - 1, wireBuf, wireBuf + 1, 1 << 20, 16<<20 + 1} {
		data := randBytes(rng, n)
		want := bytes.Clone(data)
		id := chunk.Sum(data)
		if err := conn.Store(bg, "u", id, data); err != nil {
			t.Fatalf("store %d bytes: %v", n, err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("store of %d bytes altered the caller's slice", n)
		}
		got, err := conn.Fetch(bg, "u", id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("fetch %d bytes: got %d, err=%v", n, len(got), err)
		}
		chunk.PutBuf(got)
	}
}

// TestWireStaysFramedAcrossDiscards drives both discard paths and checks the
// same conn still carries a transfer afterwards: an application error reply,
// and a request for a method the server does not have (the server reads
// past a payload it has no use for and answers with an error).
func TestWireStaysFramedAcrossDiscards(t *testing.T) {
	_, srv := startProvider(t, "p1")
	conn := mustDial(t, srv.Addr())
	data := randBytes(rand.New(rand.NewSource(2)), 1<<20)
	id := chunk.Sum(data)

	if _, err := conn.Fetch(bg, "u", id); err == nil || !strings.Contains(err.Error(), provider.ErrNotFound.Error()) {
		t.Fatalf("fetch of a missing chunk: %v, want %v", err, provider.ErrNotFound)
	}
	_, err := conn.call(bg, numMethods, &args{User: "u", ID: id}, data, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("unknown method: %v", err)
	}
	if err := conn.Store(bg, "u", id, data); err != nil {
		t.Fatal(err)
	}
	if got, err := conn.Fetch(bg, "u", id); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch after discards: %d bytes, err=%v", len(got), err)
	}
}

// waitGoroutines fails the test unless the goroutine count comes back down
// to base: every goroutine the transfers started has to have exited.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want ≤ %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelledFetchesCorruptNothing abandons 200 in-flight fetches at
// random points while two other goroutines fetch over the same conn,
// checksum what they get and donate the buffers back. A reply that arrives
// after its caller gave up is decoded into a buffer of its own, so nothing
// a live caller owns — or the pool has handed to someone else — is ever
// written to.
func TestCancelledFetchesCorruptNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	p := provider.New("p1", "z", 0)
	srv, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := DialContext(bg, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	type stored struct {
		id  chunk.ID
		crc uint32
		n   int
	}
	var chunks []stored
	for _, n := range []int{3000, 64 << 10, 300 << 10, 1 << 20, 1 << 20} {
		data := randBytes(rng, n)
		id := chunk.Sum(data)
		if err := conn.Store(bg, "u", id, data); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, stored{id, crc32.ChecksumIEEE(data), n})
	}
	check := func(c stored, got []byte) error {
		if len(got) != c.n || crc32.ChecksumIEEE(got) != c.crc {
			return fmt.Errorf("chunk %s: %d bytes crc %08x, want %d bytes crc %08x",
				c.id.Short(), len(got), crc32.ChecksumIEEE(got), c.n, c.crc)
		}
		return nil
	}

	stop := make(chan struct{})
	var checkers sync.WaitGroup
	for g := 0; g < 2; g++ {
		checkers.Add(1)
		go func(g int) {
			defer checkers.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := chunks[i%len(chunks)]
				got, err := conn.Fetch(bg, "u", c.id)
				if err == nil {
					err = check(c, got)
				}
				if err != nil {
					t.Error(err)
					return
				}
				chunk.PutBuf(got)
			}
		}(g)
	}

	var cancels sync.WaitGroup
	var abandoned atomic.Int64
	for i := 0; i < 200; i++ {
		c := chunks[rng.Intn(len(chunks))]
		after := time.Duration(rng.Intn(30000)) * time.Microsecond
		cancels.Add(1)
		go func() {
			defer cancels.Done()
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			time.AfterFunc(after, cancel)
			got, err := conn.Fetch(ctx, "u", c.id)
			if err != nil {
				abandoned.Add(1) // the late reply's buffer is the GC's
				return
			}
			if err := check(c, got); err != nil {
				t.Error(err)
			}
			chunk.PutBuf(got)
		}()
		if i%20 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	cancels.Wait()
	close(stop)
	checkers.Wait()
	if n := abandoned.Load(); n == 0 {
		t.Error("no fetch was abandoned in flight: the test exercised nothing")
	} else {
		t.Logf("%d of 200 fetches abandoned in flight", n)
	}

	conn.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestServerCloseMidTransfer closes the server under callers streaming 4 MiB
// chunks with no deadline of their own: every one of them must see an error
// promptly rather than hang, whatever arrived before that must be intact,
// and the Directory must reach the provider again once it is back on the
// same address.
func TestServerCloseMidTransfer(t *testing.T) {
	p := provider.New("p1", "z", 0)
	srv, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	dir := NewDirectory(map[string]string{"p1": addr})
	defer dir.Close()

	data := randBytes(rand.New(rand.NewSource(4)), 4<<20)
	id := chunk.Sum(data)
	conn, err := dir.Lookup(bg, "p1")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Store(bg, "u", id, data); err != nil {
		t.Fatal(err)
	}

	failed := make(chan error, 8) // one slot per fetcher
	for g := 0; g < cap(failed); g++ {
		go func() {
			for {
				got, err := conn.Fetch(bg, "u", id)
				if err != nil {
					failed <- nil
					return
				}
				if !bytes.Equal(got, data) {
					failed <- fmt.Errorf("fetch before the close returned %d damaged bytes", len(got))
					return
				}
				chunk.PutBuf(got)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < cap(failed); g++ {
		select {
		case err := <-failed:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a fetch pending at Server.Close is still pending 5 s later")
		}
	}

	srv2, err := Serve(p, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	conn2, err := dir.Lookup(bg, "p1")
	if err != nil {
		t.Fatal(err)
	}
	if conn2 == conn {
		t.Fatal("Directory still serves the conn that died with the server")
	}
	if got, err := conn2.Fetch(bg, "u", id); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch over the re-dialed conn: %d bytes, err=%v", len(got), err)
	}
}

// benchTransfer runs op b.N times against a loopback server holding one
// chunk of size bytes in a provider built with opts. Before timing, it
// fails the benchmark if a call moves other than moved payload bytes,
// allocates maxBytes or more, or allocates more than maxAllocs times,
// averaged over a fixed number of ops whatever b.N is: one pool miss on a
// cold P must not decide a gate CI runs at one iteration. (MemStats counts
// the in-process server's allocations too.)
func benchTransfer(b *testing.B, size, moved int, maxBytes, maxAllocs uint64, op func(conn *Conn, id chunk.ID, data []byte) (int, error), opts ...provider.Option) {
	p := provider.New("p1", "z", 0, opts...)
	srv, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn := mustDial(b, srv.Addr())
	data := randBytes(rand.New(rand.NewSource(5)), size)
	id := chunk.Sum(data)
	if err := conn.Store(bg, "u", id, data); err != nil {
		b.Fatal(err)
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			got, err := op(conn, id, data)
			if err != nil {
				b.Fatal(err)
			}
			if got != moved {
				b.Fatalf("a call moved %d payload bytes, want %d", got, moved)
			}
		}
	}
	run(4) // warm the pool on both ends
	const gateOps = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(gateOps)
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / gateOps; perOp >= maxBytes {
		b.Fatalf("%d bytes allocated per %d-byte transfer, want < %d", perOp, moved, maxBytes)
	}
	if perOp := (after.Mallocs - before.Mallocs) / gateOps; perOp > maxAllocs {
		b.Fatalf("%d allocations per %d-byte transfer, want ≤ %d", perOp, moved, maxAllocs)
	}
	b.SetBytes(int64(moved))
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

func fetchOp(conn *Conn, id chunk.ID, _ []byte) (int, error) {
	got, err := conn.Fetch(bg, "u", id)
	chunk.PutBuf(got)
	return len(got), err
}

// rangedFetchOp fetches the fourth quarter-MiB of its chunk, as a 256 KiB
// range read does.
func rangedFetchOp(conn *Conn, id chunk.ID, _ []byte) (int, error) {
	got, err := conn.Fetch(chunk.WithRange(bg, 3<<18, 1<<18), "u", id)
	chunk.PutBuf(got)
	return len(got), err
}

func storeOp(conn *Conn, id chunk.ID, data []byte) (int, error) {
	return len(data), conn.Store(bg, "u", id, data)
}

// The 1 MiB pair holds the payload out of every encoder and allocator: on a
// warm pool a chunk transfer allocates call records, not payload. The
// 16 KiB pair is a small object's fixed cost per call. A ranged fetch moves
// its range and nothing more. Every allocation ceiling sits one above what
// the transfer measures: 3 per call, and 4 more for a range, which rides in
// a context value on each side of the wire.
func BenchmarkRPCFetch1MiB(b *testing.B)  { benchTransfer(b, 1<<20, 1<<20, 64<<10, 4, fetchOp) }
func BenchmarkRPCStore1MiB(b *testing.B)  { benchTransfer(b, 1<<20, 1<<20, 64<<10, 4, storeOp) }
func BenchmarkRPCFetch16KiB(b *testing.B) { benchTransfer(b, 16<<10, 16<<10, 4<<10, 4, fetchOp) }
func BenchmarkRPCStore16KiB(b *testing.B) { benchTransfer(b, 16<<10, 16<<10, 4<<10, 4, storeOp) }
func BenchmarkRPCFetch256KiBOf1MiB(b *testing.B) {
	benchTransfer(b, 1<<20, 1<<18, 64<<10, 8, rangedFetchOp)
}

// The disk-backed twins serve the same fetches from lent views of a
// diskstore segment, under the same ceilings: lending allocates nothing
// per call, and a ranged fetch still moves only its range.
func BenchmarkRPCFetch1MiBDisk(b *testing.B) {
	benchTransfer(b, 1<<20, 1<<20, 64<<10, 4, fetchOp, provider.WithStore(openDisk(b, b.TempDir())))
}
func BenchmarkRPCFetch256KiBOf1MiBDisk(b *testing.B) {
	benchTransfer(b, 1<<20, 1<<18, 64<<10, 8, rangedFetchOp, provider.WithStore(openDisk(b, b.TempDir())))
}

// BenchmarkFetch1MiBDiskInProcess is the in-process plane's read of a
// disk-backed provider, as the gateway's -store=disk runs it: no rpc, no
// loan, so each Fetch copies its chunk out with ReadAt into a pool buffer.
// It cycles over 16 chunks so the reads are not all of one chunk's pages.
func BenchmarkFetch1MiBDiskInProcess(b *testing.B) {
	p := provider.New("p1", "z", 0, provider.WithStore(openDisk(b, b.TempDir())))
	rng := rand.New(rand.NewSource(6))
	ids := make([]chunk.ID, 16)
	for i := range ids {
		data := randBytes(rng, 1<<20)
		ids[i] = chunk.Sum(data)
		if err := p.Store(bg, "u", ids[i], data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := p.Fetch(bg, "u", ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		chunk.PutBuf(got)
	}
}

// openDisk opens a diskstore in dir, with no background compactor.
func openDisk(t testing.TB, dir string) *diskstore.DiskStore {
	t.Helper()
	ds, err := diskstore.Open(dir, diskstore.Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// encodeFrame returns a frame's wire form, as writeFrame sends it.
func encodeFrame(t testing.TB, h header, meta, payload []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := writeFrame(bufio.NewWriterSize(&out, wireBuf), h, meta, payload); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// hostileFrame is a Store frame whose header promises a payload of n bytes
// and which then delivers sent of them.
func hostileFrame(t testing.TB, n uint32, sent int) []byte {
	t.Helper()
	a := args{User: "u", ID: chunk.Sum([]byte("x"))}
	frame := encodeFrame(t, header{method: mStore, seq: 1}, a.append(nil, mStore), nil)
	binary.LittleEndian.PutUint32(frame[22:], n)
	return append(frame, make([]byte, sent)...)
}

// parseFrame reads one frame from in as a conn's reader does.
func parseFrame(in []byte) (h header, meta, payload []byte, err error) {
	return readFrame(bufio.NewReaderSize(bytes.NewReader(in), wireBuf))
}

// TestHostileLengthPrefix: a length in a header is the peer's word, ahead of
// the bytes it promises. One beyond the pool's classes must not size a
// buffer before those bytes arrive.
func TestHostileLengthPrefix(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        uint32
		sent     int
		maxAlloc uint64
	}{
		{"1 GiB then EOF", maxPayload, 0, 1 << 20},
		{"1 GiB, 3 MiB arrive", maxPayload, 3 << 20, 16 << 20},
		{"past the frame limit", maxPayload + 1, 0, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := hostileFrame(t, tc.n, tc.sent)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, payload, err := parseFrame(frame)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("the frame reader accepted a truncated payload")
			}
			if payload != nil {
				t.Fatalf("a failed read returned %d payload bytes", len(payload))
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= tc.maxAlloc {
				t.Fatalf("allocated %d bytes for %d received, want < %d", got, tc.sent, tc.maxAlloc)
			}
		})
	}

	// The same frame against a live server: the conn that sent it dies, the
	// server does not, and its next client is served.
	_, srv := startProvider(t, "p1")
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(hostileFrame(t, maxPayload, 0)); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	conn := mustDial(t, srv.Addr())
	data := []byte("still serving")
	if err := conn.Store(bg, "u", chunk.Sum(data), data); err != nil {
		t.Fatalf("store after a hostile peer: %v", err)
	}
}

// TestLongPayloadGrowsAsItArrives: a payload past the pool's largest class
// is read through the doubling buffer and arrives whole.
func TestLongPayloadGrowsAsItArrives(t *testing.T) {
	data := randBytes(rand.New(rand.NewSource(4)), chunk.MaxPooled+chunk.MaxPooled/2+7)
	_, _, payload, err := parseFrame(encodeFrame(t, header{method: mFetch, seq: 9}, nil, data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, data) {
		t.Fatalf("got %d bytes, want the %d sent", len(payload), len(data))
	}
}

// TestFetchRangeArgs: a Fetch's byte range survives encoding — none, one
// inside a chunk, one past any chunk — and a range field that does not
// fit an int64 is malformed metadata, not a negative offset.
func TestFetchRangeArgs(t *testing.T) {
	id := chunk.Sum([]byte("x"))
	for _, a := range []args{
		{User: "u", ID: id},
		{User: "u", ID: id, Off: 3 << 20, Len: 256 << 10},
		{User: "u", ID: id, Off: 1 << 40, Len: maxPayload + 1},
	} {
		var got args
		if err := got.decode(mFetch, a.append(nil, mFetch)); err != nil || !reflect.DeepEqual(got, a) {
			t.Errorf("%+v decoded as %+v (%v)", a, got, err)
		}
	}
	meta := append(binary.AppendUvarint(nil, 1), 'u')
	meta = append(meta, id[:]...)
	meta = binary.AppendUvarint(binary.AppendUvarint(meta, 1<<63), 1)
	var a args
	if err := a.decode(mFetch, meta); err == nil {
		t.Fatalf("an offset of 2^63 decoded as %+v", a)
	}
}

// FuzzReadBody feeds the frame reader arbitrary bytes: a header, then the
// metadata and payload it announces. It must return, not panic. A frame
// that parses must re-encode to one that parses to the same header,
// metadata and payload; metadata that decodes as its method's
// hand-encoded arguments must re-encode to the same arguments.
func FuzzReadBody(f *testing.F) {
	data := randBytes(rand.New(rand.NewSource(5)), 3000)
	id := chunk.Sum(data)
	lease := chunk.Lease{ID: "wl-1", TTL: time.Minute}
	frame := func(m, flags byte, meta, payload []byte) []byte {
		return encodeFrame(f, header{method: m, flags: flags, seq: 7, timeout: time.Second}, meta, payload)
	}
	argsOf := func(m byte, a args) []byte { return a.append(nil, m) }
	resultOf := func(r result) []byte {
		b, err := r.encode()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(frame(mStore, 0, argsOf(mStore, args{User: "u", ID: id, Lease: lease}), data))
	f.Add(frame(mFetch, 0, nil, data[:1]))
	f.Add(frame(mFetch, 0, nil, nil))
	f.Add(frame(mFetch, 0, argsOf(mFetch, args{User: "u", ID: id}), nil))
	f.Add(frame(mFetch, 0, argsOf(mFetch, args{User: "u", ID: id, Off: 3 << 20, Len: 256 << 10}), nil))
	f.Add(frame(mFetch, 0, argsOf(mFetch, args{User: "u", ID: id, Off: 1 << 40, Len: maxPayload + 1}), nil))
	f.Add(frame(mFetch, 0, append(argsOf(mFetch, args{User: "u", ID: id})[:34], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0), nil)) // an offset past int64
	f.Add(hostileFrame(f, maxPayload, 0))
	f.Add(hostileFrame(f, chunk.MaxPooled+1, 100))
	f.Add(hostileFrame(f, 1<<32-1, 0)) // the largest payload length a header can state, 4 GiB − 1
	metaOnly := frame(mLeaseChunks, 0, nil, nil)
	binary.LittleEndian.PutUint32(metaOnly[18:], 1000) // metadata promised, nothing behind it
	f.Add(metaOnly)
	f.Add(frame(mLeaseChunks, 0, argsOf(mLeaseChunks, args{Lease: lease, IDs: []chunk.ID{id, chunk.Sum(nil)}}), nil))
	f.Add(frame(mReleaseLease, flagOneWay, argsOf(mReleaseLease, args{Lease: lease}), nil))
	f.Add(frame(mListChunks, 0, resultOf(result{Chunks: []provider.ChunkInfo{{ID: id, Size: 3000}}, More: true}), nil))
	f.Add(frame(numMethods, 0, resultOf(result{Epoch: 1}), nil)) // one past the last method: args.decode refuses it
	f.Add(frame(mPurge, 0, resultOf(result{Purged: 3, Freed: -1}), nil))
	f.Add(frame(mAdvanceEpoch, 0, resultOf(result{Epoch: 1 << 40}), nil))
	f.Add(frame(mFetch, flagError, []byte(provider.ErrNotFound.Error()), nil))
	f.Add(frame(0, flagCancel, nil, nil))
	f.Add([]byte{mStore, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		h, meta, payload, err := parseFrame(in)
		if err != nil {
			return
		}
		h2, meta2, payload2, err := parseFrame(encodeFrame(t, h, meta, payload))
		if err != nil {
			t.Fatalf("re-encoded frame does not parse: %v", err)
		}
		if h2 != h || !bytes.Equal(meta2, meta) || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed the frame: %+v vs %+v", h2, h)
		}
		var a, a2 args
		if a.decode(h.method, meta) == nil {
			if err := a2.decode(h.method, a.append(nil, h.method)); err != nil || !reflect.DeepEqual(a2, a) {
				t.Fatalf("arguments changed in a round trip: %+v vs %+v (%v)", a2, a, err)
			}
		}
		for _, b := range [][]byte{meta, payload, meta2, payload2} {
			chunk.PutBuf(b)
		}
	})
}
