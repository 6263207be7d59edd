package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

// plainReader hides bytes.Reader's WriterTo so io.Copy exercises the
// destination's ReaderFrom instead.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

func TestStreamWriterReaderRoundTrip(t *testing.T) {
	b := newBed(t, 4)
	c := b.client("alice")
	ctx := context.Background()
	info, err := c.Create(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.Open(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Stream at an unaligned offset in odd-sized pieces so head, interior
	// and tail slots all occur.
	payload := bytes.Repeat([]byte("0123456789abcdef"), 5) // 80 bytes
	w, err := blob.NewWriter(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 9, 1, 20, 45} {
		if _, err := w.Write(payload[:n]); err != nil {
			t.Fatal(err)
		}
		payload = payload[n:]
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Version() != 1 {
		t.Fatalf("version=%d", w.Version())
	}
	want := append(make([]byte, 3), bytes.Repeat([]byte("0123456789abcdef"), 5)...)

	r, err := blob.NewReader(ctx, 0, 0, -1) // -1 = to end of version
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != int64(len(want)) {
		t.Fatalf("reader size=%d want %d", r.Size(), len(want))
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip mismatch: got %d bytes", len(got))
	}
}

func TestStreamWriteToMatchesRead(t *testing.T) {
	b := newBed(t, 4)
	c := b.client("alice")
	ctx := context.Background()
	info, _ := c.Create(ctx, 16)
	payload := bytes.Repeat([]byte("streaming-writer-to!"), 13)
	if _, err := c.Write(ctx, info.ID, 0, payload); err != nil {
		t.Fatal(err)
	}
	blob, err := c.Open(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	r, err := blob.NewReader(ctx, 0, 7, int64(len(payload))-7)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var buf bytes.Buffer
	n, err := io.Copy(&buf, r) // dispatches to WriteTo
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload))-7 || !bytes.Equal(buf.Bytes(), payload[7:]) {
		t.Fatalf("WriteTo mismatch: n=%d", n)
	}
}

func TestStreamReaderSeek(t *testing.T) {
	b := newBed(t, 4)
	c := b.client("alice")
	ctx := context.Background()
	info, _ := c.Create(ctx, 8)
	payload := []byte("0123456789abcdefghijklmnopqrstuv") // 32 bytes, 4 chunks
	if _, err := c.Write(ctx, info.ID, 0, payload); err != nil {
		t.Fatal(err)
	}
	blob, _ := c.Open(ctx, info.ID)
	r, err := blob.NewReader(ctx, 0, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if pos, err := r.Seek(20, io.SeekStart); err != nil || pos != 20 {
		t.Fatalf("seek: pos=%d err=%v", pos, err)
	}
	rest, err := io.ReadAll(r)
	if err != nil || string(rest) != string(payload[20:]) {
		t.Fatalf("after seek: %q err=%v", rest, err)
	}
	// Seek backward across already-evicted chunks: they must be refetched.
	if _, err := r.Seek(-int64(len(payload)), io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(all, payload) {
		t.Fatalf("after rewind: %d bytes err=%v", len(all), err)
	}
	if pos, _ := r.Seek(5, io.SeekCurrent); pos != int64(len(payload))+5 {
		t.Fatalf("seek past end: pos=%d", pos)
	}
	if _, err := r.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read past end: %v", err)
	}
	if _, err := r.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek accepted")
	}
}

func TestStreamWriterReadFrom(t *testing.T) {
	b := newBed(t, 4)
	c := b.client("alice")
	ctx := context.Background()
	info, _ := c.Create(ctx, 8)
	payload := bytes.Repeat([]byte("reader-from-path"), 9)
	blob, _ := c.Open(ctx, info.ID)
	w, err := blob.NewWriter(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(w, plainReader{bytes.NewReader(payload)}) // dst ReadFrom
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("copy: n=%d err=%v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(ctx, info.ID, 0, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back mismatch err=%v", err)
	}
}

func TestStreamWriterCloseIdempotentAndWriteAfterClose(t *testing.T) {
	b := newBed(t, 2)
	c := b.client("alice")
	ctx := context.Background()
	info, _ := c.Create(ctx, 8)
	blob, _ := c.Open(ctx, info.ID)
	w, _ := blob.NewWriter(ctx, 0)
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := w.Write([]byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	r, _ := blob.NewReader(ctx, 0, 0, 1)
	if _, err := io.ReadAll(r); err != nil {
		t.Fatal(err)
	}
	_ = r.Close()
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
}

// blockingConn blocks every transfer until its context is cancelled,
// counting how many are parked — the shape of a stuck replica.
type blockingConn struct {
	Conn    // lease traffic passes through
	blocked *atomic.Int64
}

func (c blockingConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	c.blocked.Add(1)
	defer c.blocked.Add(-1)
	<-ctx.Done()
	return ctx.Err()
}

func (c blockingConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	c.blocked.Add(1)
	defer c.blocked.Add(-1)
	<-ctx.Done()
	return nil, ctx.Err()
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHedgedReadCancelsLosers writes a replicated blob, then reads it
// hedged through a directory where every replica except one blocks
// forever: the fast replica must win, and winning must cancel — not
// strand — the losing fetches, leaving no goroutine behind.
func TestHedgedReadCancelsLosers(t *testing.T) {
	b := newBed(t, 3)
	writer := b.client("alice", WithReplicas(3))
	info, _ := writer.Create(context.Background(), 8)
	payload := []byte("hedged-loser-cancellation-check!")
	if _, err := writer.Write(context.Background(), info.ID, 0, payload); err != nil {
		t.Fatal(err)
	}

	var blocked atomic.Int64
	dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
		conn, err := b.Lookup(ctx, id)
		if err != nil {
			return nil, err
		}
		if id == "p00" {
			return conn, nil // the only replica that answers
		}
		return blockingConn{Conn: conn, blocked: &blocked}, nil
	})
	reader := New("alice", b.vm, b.pm, dir, WithHedgedReads(true))

	before := runtime.NumGoroutine()
	got, err := reader.Read(context.Background(), info.ID, 0, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("hedged read: %q err=%v", got, err)
	}
	// The winner's return must propagate cancellation to the parked
	// losers promptly.
	waitFor(t, "losing fetches to unblock", func() bool { return blocked.Load() == 0 })
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestHedgedReadParentCancellation parks every replica and cancels the
// caller's context: the read must fail with context.Canceled promptly
// and all replica fetches must unblock.
func TestHedgedReadParentCancellation(t *testing.T) {
	b := newBed(t, 3)
	writer := b.client("alice", WithReplicas(3))
	info, _ := writer.Create(context.Background(), 8)
	if _, err := writer.Write(context.Background(), info.ID, 0, []byte("parked!!")); err != nil {
		t.Fatal(err)
	}

	var blocked atomic.Int64
	dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
		conn, err := b.Lookup(ctx, id)
		if err != nil {
			return nil, err
		}
		return blockingConn{Conn: conn, blocked: &blocked}, nil
	})
	reader := New("alice", b.vm, b.pm, dir, WithHedgedReads(true))

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := reader.Read(ctx, info.ID, 0, 0, 8)
		errCh <- err
	}()
	waitFor(t, "fetches to park", func() bool { return blocked.Load() == 3 })
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled read did not return")
	}
	waitFor(t, "parked fetches to unblock", func() bool { return blocked.Load() == 0 })
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestWriterCancellationAbortsStores parks every replica store and
// cancels the writer's context mid-stream: Close must report the
// cancellation, publish nothing, and the parked stores must unblock.
func TestWriterCancellationAbortsStores(t *testing.T) {
	b := newBed(t, 2)
	var blocked atomic.Int64
	dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
		conn, err := b.Lookup(ctx, id)
		if err != nil {
			return nil, err
		}
		return blockingConn{Conn: conn, blocked: &blocked}, nil
	})
	c := New("alice", b.vm, b.pm, dir)
	info, err := c.Create(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	blob, err := c.Open(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	w, err := blob.NewWriter(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte("z"), 16)); err != nil { // two full slots flush
		t.Fatal(err)
	}
	waitFor(t, "stores to park", func() bool { return blocked.Load() > 0 })
	cancel()
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from Close, got %v", err)
	}
	waitFor(t, "parked stores to unblock", func() bool { return blocked.Load() == 0 })
	if _, err := b.vm.Latest(info.ID); err == nil {
		if v, _ := c.Latest(info.ID); v != 0 {
			t.Fatalf("cancelled write published version %d", v)
		}
	}
}

// TestStreamReadMatchesBufferedAcrossShapes cross-checks the streaming
// reader against the buffered wrapper over a grid of window shapes,
// including hole-spanning and chunk-straddling ranges.
func TestStreamReadMatchesBufferedAcrossShapes(t *testing.T) {
	b := newBed(t, 4)
	pinner := newRecPinner()
	c := b.client("alice", WithPrefetch(2), WithPinner(pinner))
	ctx := context.Background()
	info, _ := c.Create(ctx, 8)
	// Hole in chunks 2..3: write [0,12) and [35,50).
	if _, err := c.Write(ctx, info.ID, 0, bytes.Repeat([]byte("A"), 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(ctx, info.ID, 35, bytes.Repeat([]byte("B"), 15)); err != nil {
		t.Fatal(err)
	}
	blob, _ := c.Open(ctx, info.ID)
	for _, win := range [][2]int64{{0, 50}, {3, 17}, {10, 30}, {34, 2}, {12, 23}, {49, 1}, {20, 0}} {
		off, n := win[0], win[1]
		want, err := c.Read(ctx, info.ID, 0, off, n)
		if err != nil {
			t.Fatalf("buffered [%d,%d): %v", off, off+n, err)
		}
		r, err := blob.NewReader(ctx, 0, off, n)
		if err != nil {
			t.Fatalf("reader [%d,%d): %v", off, off+n, err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("window [%d,%d): stream %d bytes vs buffered %d, err=%v",
				off, off+n, len(got), len(want), err)
		}
	}
	if _, err := blob.NewReader(ctx, 0, 40, 20); !errors.Is(err, ErrShortRead) {
		t.Fatalf("past-end window: %v", err)
	}
	// A window whose end wraps int64 is past the end too (regression: the
	// check summed offset+length and let it through to the tree walk).
	if _, err := blob.NewReader(ctx, 0, 1, math.MaxInt64); !errors.Is(err, ErrShortRead) {
		t.Fatalf("wrapping window: %v", err)
	}
	if n := pinner.outstanding(); n != 0 {
		t.Fatalf("refused windows left %d pins", n)
	}
	// The buffered wrapper keeps the historical contract: negative
	// length is an error, not a to-the-end request (regression: used to
	// panic in make([]byte, -1)).
	if _, err := c.Read(ctx, info.ID, 0, 0, -1); !errors.Is(err, ErrShortRead) {
		t.Fatalf("negative length: %v", err)
	}
}

// TestWriterFlushesBoundedByWorkers parks every replica store and pushes
// many chunk slots through a WithWorkers(2) writer: at most two stores
// may ever be in flight, and the producer must block on the full
// pipeline instead of accumulating goroutines and slot buffers.
func TestWriterFlushesBoundedByWorkers(t *testing.T) {
	b := newBed(t, 2)
	var blocked atomic.Int64
	dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
		conn, err := b.Lookup(ctx, id)
		if err != nil {
			return nil, err
		}
		return blockingConn{Conn: conn, blocked: &blocked}, nil
	})
	c := New("alice", b.vm, b.pm, dir, WithWorkers(2))
	info, err := c.Create(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blob, err := c.Open(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	w, err := blob.NewWriter(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, werr := w.Write(bytes.Repeat([]byte("q"), 12*8)) // 12 full slots
		done <- werr
	}()
	waitFor(t, "two stores to park", func() bool { return blocked.Load() == 2 })
	// Pipeline full: the producer must stay blocked, no third store.
	time.Sleep(50 * time.Millisecond)
	if n := blocked.Load(); n != 2 {
		t.Fatalf("in-flight stores=%d, want 2 (the WithWorkers bound)", n)
	}
	select {
	case werr := <-done:
		t.Fatalf("Write returned (%v) while the flush pipeline was full", werr)
	default:
	}
	cancel()
	if werr := <-done; !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled Write: %v", werr)
	}
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel: %v", err)
	}
	waitFor(t, "parked stores to unblock", func() bool { return blocked.Load() == 0 })
}

// TestSeekBackwardPrunesPrefetch rewinds a reader after the prefetch
// window filled at a high position: the future map must shrink back to
// the window, not pin the high-index chunk buffers until Close.
func TestSeekBackwardPrunesPrefetch(t *testing.T) {
	b := newBed(t, 4)
	c := b.client("alice", WithPrefetch(2))
	ctx := context.Background()
	info, _ := c.Create(ctx, 8)
	payload := bytes.Repeat([]byte("01234567"), 6) // 6 chunks
	if _, err := c.Write(ctx, info.ID, 0, payload); err != nil {
		t.Fatal(err)
	}
	blob, _ := c.Open(ctx, info.ID)
	r, err := blob.NewReader(ctx, 0, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	one := make([]byte, 1)
	if _, err := r.Seek(40, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(one); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(one); err != nil {
		t.Fatal(err)
	}
	if len(r.futures) > 2 {
		t.Fatalf("futures=%d after rewind, want ≤ prefetch window 2", len(r.futures))
	}
	for i := range r.futures {
		if i >= 2 {
			t.Fatalf("future for chunk %d pinned outside window [0,2)", i)
		}
	}
	rest, err := io.ReadAll(r)
	if err != nil || one[0] != payload[0] || !bytes.Equal(rest, payload[1:]) {
		t.Fatalf("rewound read mismatch: %d bytes err=%v", len(rest), err)
	}
}

// TestStoredChunksAfterAbortedClose cancels a writer after its slots
// flushed: Close must not publish, and StoredChunks must surface the
// flushed descriptors so callers can reclaim the orphaned replicas.
func TestStoredChunksAfterAbortedClose(t *testing.T) {
	b := newBed(t, 2)
	c := b.client("alice")
	info, _ := c.Create(context.Background(), 8)
	ctx, cancel := context.WithCancel(context.Background())
	blob, _ := c.Open(ctx, info.ID)
	w, err := blob.NewWriter(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte("d"), 3*8)); err != nil { // three full slots
		t.Fatal(err)
	}
	// Let the background flushes land before aborting.
	waitFor(t, "slots to flush", func() bool { return len(w.StoredChunks()) == 3 })
	cancel()
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted Close: %v", err)
	}
	descs := w.StoredChunks()
	if len(descs) != 3 {
		t.Fatalf("stored descs=%d, want 3", len(descs))
	}
	for _, d := range descs {
		if d.ID.IsZero() || len(d.Providers) == 0 {
			t.Fatalf("malformed desc %+v", d)
		}
	}
}

// failStoreConn rejects every Store and passes everything else through.
type failStoreConn struct{ Conn }

func (c failStoreConn) Store(context.Context, string, chunk.ID, []byte) error {
	return errors.New("disk full")
}

// TestStoredChunksIncludeQuorumOrphans fails one of three replicas so the
// slot misses its (default: all) write quorum: the two replicas that did
// land are unreferenced by any version, and StoredChunks must surface
// them for reclamation.
func TestStoredChunksIncludeQuorumOrphans(t *testing.T) {
	b := newBed(t, 3)
	dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
		conn, err := b.Lookup(ctx, id)
		if err != nil {
			return nil, err
		}
		if id == "p02" {
			return failStoreConn{conn}, nil
		}
		return conn, nil
	})
	c := New("alice", b.vm, b.pm, dir, WithReplicas(3))
	info, err := c.Create(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	blob, _ := c.Open(ctx, info.ID)
	w, err := blob.NewWriter(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = w.Write([]byte("12345678")) // one full slot; its flush fails quorum
	if err := w.Close(); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("Close: %v", err)
	}
	descs := w.StoredChunks()
	if len(descs) != 1 {
		t.Fatalf("stored descs=%d, want the quorum-failed slot's orphans", len(descs))
	}
	if n := len(descs[0].Providers); n != 2 {
		t.Fatalf("orphan replicas=%d, want 2 (the stores that landed)", n)
	}
	for _, p := range descs[0].Providers {
		if p == "p02" {
			t.Fatal("failed provider listed as holding a replica")
		}
	}
}

// cancelOnFinalRead feeds two chunk slots and cancels the writer context
// during the Read that also returns io.EOF — the final slot is dropped
// by flushCur, and ReadFrom must report the loss, not clean success.
type cancelOnFinalRead struct {
	cancel context.CancelFunc
	reads  int
}

func (r *cancelOnFinalRead) Read(p []byte) (int, error) {
	r.reads++
	for i := range p {
		p[i] = 'e'
	}
	switch r.reads {
	case 1:
		return len(p), nil
	default:
		r.cancel()
		return len(p), io.EOF
	}
}

func TestReadFromReportsDroppedFinalSlot(t *testing.T) {
	b := newBed(t, 2)
	c := b.client("alice")
	info, _ := c.Create(context.Background(), 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blob, _ := c.Open(ctx, info.ID)
	w, err := blob.NewWriter(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := w.ReadFrom(&cancelOnFinalRead{cancel: cancel})
	if err == nil {
		t.Fatalf("ReadFrom returned clean success (n=%d) after its final slot was dropped", n)
	}
	if cerr := w.Close(); cerr == nil {
		t.Fatal("Close published after a cancelled stream")
	}
}

// TestStreamWritePlacementSpreads runs a streamed write through a
// LeastUsed provider manager: placements must come from batch
// allocations, so the object's chunks spread across the cluster instead
// of every per-slot Allocate(1) re-picking the same "least used" target.
func TestStreamWritePlacementSpreads(t *testing.T) {
	b := &bed{
		vm: vmanager.New(blobmeta.NewMemStore("m1", nil, nil)),
		pm: pmanager.New(pmanager.WithTTL(0),
			pmanager.WithStrategy(pmanager.LeastUsed{})),
		providers: map[string]*provider.Provider{},
	}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("p%02d", i)
		b.providers[id] = provider.New(id, "z0", 0)
		if err := b.pm.Register(pmanager.Info{ID: id, Zone: "z0"}); err != nil {
			t.Fatal(err)
		}
	}
	c := b.client("alice")
	info, err := c.Create(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	blob, _ := c.Open(ctx, info.ID)
	w, err := blob.NewWriter(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte("spread!!"), 8)); err != nil { // 8 full slots
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, d := range w.StoredChunks() {
		for _, p := range d.Providers {
			used[p] = true
		}
	}
	if len(used) < 2 {
		t.Fatalf("8 streamed chunks all landed on %d provider(s) — per-slot allocation defeats LeastUsed spreading", len(used))
	}
}

// TestSeekEvictionCancelsInFlightFetches parks every fetch, fills the
// prefetch window at a high index, then seeks the window back to zero:
// the evicted futures' fetches must be cancelled promptly, so in-flight
// transfers — not just map entries — stay bounded by the window.
func TestSeekEvictionCancelsInFlightFetches(t *testing.T) {
	b := newBed(t, 4)
	writer := b.client("alice")
	info, _ := writer.Create(context.Background(), 8)
	if _, err := writer.Write(context.Background(), info.ID, 0, bytes.Repeat([]byte("w"), 48)); err != nil {
		t.Fatal(err)
	}
	var blocked atomic.Int64
	dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
		conn, err := b.Lookup(ctx, id)
		if err != nil {
			return nil, err
		}
		return blockingConn{Conn: conn, blocked: &blocked}, nil
	})
	c := New("alice", b.vm, b.pm, dir, WithPrefetch(2))
	ctx := context.Background()
	blob, _ := c.Open(ctx, info.ID)
	r, err := blob.NewReader(ctx, 0, 0, 48)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	f4 := r.ensure(4) // parks fetches for chunks 4 and 5
	f5 := r.futures[5]
	waitFor(t, "window fetches to park", func() bool { return blocked.Load() == 2 })
	r.ensure(0) // window moves to [0,2): 4 and 5 evicted, 0 and 1 launched
	for _, f := range []*chunkFuture{f4, f5} {
		select {
		case <-f.done:
			if !errors.Is(f.err, context.Canceled) {
				t.Fatalf("evicted fetch finished with %v, want context.Canceled", f.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("evicted in-flight fetch was not cancelled")
		}
	}
	if len(r.futures) != 2 {
		t.Fatalf("futures=%d after window move, want 2", len(r.futures))
	}
	waitFor(t, "new window fetches to park", func() bool { return blocked.Load() == 2 })
}

// ctxGate admits only live contexts — the shape of policy.Enforcer's
// cancelled-request check.
type ctxGate struct{}

func (ctxGate) Allow(ctx context.Context, _ string, _ instrument.Op) error {
	return ctx.Err()
}

func TestCreateTemporaryCancelled(t *testing.T) {
	b := newBed(t, 2)
	c := New("alice", b.vm, b.pm, b, WithGatekeeper(ctxGate{}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CreateTemporary(ctx, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CreateTemporary: %v", err)
	}
	if _, err := c.CreateTemporary(context.Background(), 8); err != nil { // a live ctx still admits
		t.Fatal(err)
	}
}

// TestWriterMergesAgainstCreationSnapshot opens a writer over version 1,
// lets a concurrent writer publish version 2 mid-stream, then streams an
// unaligned write: both partial edge slots must merge against the same
// version-1 snapshot taken at NewWriter, not whatever is latest at each
// flush.
func TestWriterMergesAgainstCreationSnapshot(t *testing.T) {
	b := newBed(t, 4)
	c := b.client("alice")
	info, _ := c.Create(context.Background(), 8)
	if _, err := c.Write(context.Background(), info.ID, 0, []byte("AAAAAAAABBBBBBBB")); err != nil { // v1
		t.Fatal(err)
	}
	ctx := context.Background()
	blob, _ := c.Open(ctx, info.ID)
	w, err := blob.NewWriter(ctx, 3) // snapshots v1 as the merge base
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(ctx, info.ID, 0, []byte("CCCCCCCCDDDDDDDD")); err != nil { // v2
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("111112222222")); err != nil { // [3,15): both edges partial
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(ctx, info.ID, w.Version(), 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("AAA111112222222B") // edges from v1, never v2's C/D bytes
	if !bytes.Equal(got, want) {
		t.Fatalf("merged content %q, want %q", got, want)
	}
}

// guard against accidental interface regressions
var (
	_ io.ReadSeekCloser = (*BlobReader)(nil)
	_ io.WriterTo       = (*BlobReader)(nil)
	_ io.Writer         = (*BlobWriter)(nil)
	_ io.ReaderFrom     = (*BlobWriter)(nil)
	_ io.Closer         = (*BlobWriter)(nil)
)
