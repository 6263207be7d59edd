package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"net/rpc"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/provider"
)

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func dial(t testing.TB, addr string) *Conn {
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
	conn := dial(t, srv.Addr())
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
// same conn still carries a transfer afterwards: an application error reply
// (the client is told to read past a body it has no receiver for), and a
// request for a method the server does not have (the server reads past a
// raw payload it has no receiver for).
func TestWireStaysFramedAcrossDiscards(t *testing.T) {
	_, srv := startProvider(t, "p1")
	conn := dial(t, srv.Addr())
	data := randBytes(rand.New(rand.NewSource(2)), 1<<20)
	id := chunk.Sum(data)

	if _, err := conn.Fetch(bg, "u", id); err == nil || !strings.Contains(err.Error(), provider.ErrNotFound.Error()) {
		t.Fatalf("fetch of a missing chunk: %v, want %v", err, provider.ErrNotFound)
	}
	err := conn.call(bg, "Provider.NoSuchMethod", &StoreArgs{User: "u", ID: id, Data: data}, &struct{}{})
	if err == nil || !strings.Contains(err.Error(), "can't find method") {
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
// 1 MiB chunk and fails the benchmark if an op allocates 64 KiB or more:
// on a warm pool a chunk transfer allocates headers and call records, not
// payload. (MemStats counts the in-process server's allocations too.)
func benchTransfer(b *testing.B, op func(conn *Conn, id chunk.ID, data []byte) error) {
	p := provider.New("p1", "z", 0)
	srv, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn := dial(b, srv.Addr())
	data := randBytes(rand.New(rand.NewSource(5)), 1<<20)
	id := chunk.Sum(data)
	if err := conn.Store(bg, "u", id, data); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ { // warm the pool on both ends
		if err := op(conn, id, data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(conn, id, data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N); perOp >= 64<<10 {
		b.Fatalf("%d bytes allocated per 1 MiB transfer, want < 64 KiB", perOp)
	}
}

func BenchmarkRPCFetch1MiB(b *testing.B) {
	benchTransfer(b, func(conn *Conn, id chunk.ID, _ []byte) error {
		got, err := conn.Fetch(bg, "u", id)
		chunk.PutBuf(got)
		return err
	})
}

func BenchmarkRPCStore1MiB(b *testing.B) {
	benchTransfer(b, func(conn *Conn, id chunk.ID, data []byte) error {
		return conn.Store(bg, "u", id, data)
	})
}

// memConn is a wire's two halves in memory: reads drain in, writes fill out.
type memConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *memConn) Close() error                { return nil }

// encodeBody returns body's wire form, as writeBody frames it.
func encodeBody(t testing.TB, body any) []byte {
	t.Helper()
	c := &memConn{in: bytes.NewReader(nil)}
	w := newWire(c)
	if err := w.writeBody(body, false); err != nil {
		t.Fatal(err)
	}
	if err := w.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(c.out.Bytes())
}

// hostileBody is a raw Store body whose length prefix promises n bytes and
// which then delivers sent of them.
func hostileBody(t testing.TB, n uint64, sent int) []byte {
	t.Helper()
	frame := encodeBody(t, &StoreArgs{User: "u", ID: chunk.Sum([]byte("x"))})
	frame = frame[:len(frame)-1] // the uvarint 0 of the empty payload
	frame = binary.AppendUvarint(frame, n)
	return append(frame, make([]byte, sent)...)
}

// TestHostileLengthPrefix: a length prefix is the peer's word, ahead of the
// bytes it promises. One beyond the pool's classes must not size a buffer
// before those bytes arrive.
func TestHostileLengthPrefix(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        uint64
		sent     int
		maxAlloc uint64
	}{
		{"1 GiB then EOF", maxPayload, 0, 1 << 20},
		{"1 GiB, 3 MiB arrive", maxPayload, 3 << 20, 16 << 20},
		{"past the frame limit", maxPayload + 1, 0, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := hostileBody(t, tc.n, tc.sent)
			w := newWire(&memConn{in: bytes.NewReader(frame)})
			var args StoreArgs
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := w.readBody(&args)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("readBody accepted a truncated payload")
			}
			if args.Data != nil {
				t.Fatalf("a failed read left %d payload bytes in the message", len(args.Data))
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
	hw := newWire(raw)
	if err := hw.enc.Encode(&rpc.Request{ServiceMethod: "Provider.Store", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.bw.Write(hostileBody(t, maxPayload, 0)); err != nil {
		t.Fatal(err)
	}
	if err := hw.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	conn := dial(t, srv.Addr())
	data := []byte("still serving")
	if err := conn.Store(bg, "u", chunk.Sum(data), data); err != nil {
		t.Fatalf("store after a hostile peer: %v", err)
	}
}

// TestLongPayloadGrowsAsItArrives: a payload past the pool's largest class
// is read through the doubling buffer and arrives whole.
func TestLongPayloadGrowsAsItArrives(t *testing.T) {
	data := randBytes(rand.New(rand.NewSource(4)), chunk.MaxPooled+chunk.MaxPooled/2+7)
	frame := encodeBody(t, &FetchReply{Data: data})
	var reply FetchReply
	if err := newWire(&memConn{in: bytes.NewReader(frame)}).readBody(&reply); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply.Data, data) {
		t.Fatalf("got %d bytes, want the %d sent", len(reply.Data), len(data))
	}
}

// FuzzReadBody feeds readBody arbitrary bytes as each kind of body it can be
// asked for — a raw-payload message, a gob one, and one to skip. It must
// return, not panic, and whatever parses must re-encode to a frame that
// parses to the same message.
func FuzzReadBody(f *testing.F) {
	data := randBytes(rand.New(rand.NewSource(5)), 3000)
	f.Add(encodeBody(f, &StoreArgs{User: "u", ID: chunk.Sum(data), Data: data}))
	f.Add(encodeBody(f, &FetchReply{Data: data[:1]}))
	f.Add(encodeBody(f, &FetchReply{}))
	f.Add(encodeBody(f, &FetchArgs{User: "u", ID: chunk.Sum(data)}))
	f.Add(hostileBody(f, maxPayload, 0))
	f.Add(hostileBody(f, chunk.MaxPooled+1, 100))
	f.Add([]byte{bodyRaw})
	f.Add([]byte{'?', 1, 2, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		read := func(body any) error {
			return newWire(&memConn{in: bytes.NewReader(in)}).readBody(body)
		}
		_ = read(nil)
		_ = read(&FetchArgs{})
		var reply FetchReply
		_ = read(&reply)
		chunk.PutBuf(reply.Data)

		var args StoreArgs
		if read(&args) != nil {
			return
		}
		var again StoreArgs
		if err := newWire(&memConn{in: bytes.NewReader(encodeBody(t, &args))}).readBody(&again); err != nil {
			t.Fatalf("re-encoded body does not parse: %v", err)
		}
		if again.User != args.User || again.ID != args.ID || !bytes.Equal(again.Data, args.Data) {
			t.Fatalf("round trip changed the message: %+v vs %+v", again, args)
		}
	})
}
