package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/metrics"
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

// TestReadParentCancellation parks the replica fetch and cancels the
// caller's context: the read must fail with context.Canceled promptly,
// without failing over, and the parked fetch must unblock.
func TestReadParentCancellation(t *testing.T) {
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
	reader := New("alice", b.vm, b.pm, dir)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := reader.Read(ctx, info.ID, 0, 0, 8)
		errCh <- err
	}()
	waitFor(t, "the fetch to park", func() bool { return blocked.Load() == 1 })
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled read did not return")
	}
	waitFor(t, "the parked fetch to unblock", func() bool { return blocked.Load() == 0 })
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
	// Chunks of splitMin and more, against the bytes written: demand
	// heads and their remainders, mid-chunk starts, parts under splitMin,
	// a short chunk's zero tail (chunk 2), a hole's leading zeros (chunk
	// 3) and a short last chunk (chunk 4), read by small Reads,
	// io.ReadAll's growing ones and WriteTo.
	large, _ := c.Create(ctx, mib)
	bytesAt := make([]byte, 4*mib+3*mib/4)
	copy(bytesAt, noise(2, 5*mib/2))
	copy(bytesAt[13*mib/4:], noise(3, 3*mib/2))
	if _, err := c.Write(ctx, large.ID, 0, bytesAt[:5*mib/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(ctx, large.ID, 13*mib/4, bytesAt[13*mib/4:]); err != nil {
		t.Fatal(err)
	}
	largeBlob, _ := c.Open(ctx, large.ID)
	consumers := []struct {
		name string
		read func(*BlobReader) ([]byte, error)
	}{
		{"Read 1000", func(r *BlobReader) (out []byte, err error) {
			buf := make([]byte, 1000)
			for {
				n, err := r.Read(buf)
				out = append(out, buf[:n]...)
				if err == io.EOF {
					return out, nil
				} else if err != nil {
					return out, err
				}
			}
		}},
		{"ReadAll", func(r *BlobReader) ([]byte, error) { return io.ReadAll(r) }},
		{"WriteTo", func(r *BlobReader) ([]byte, error) {
			var buf bytes.Buffer
			_, err := r.WriteTo(&buf)
			return buf.Bytes(), err
		}},
	}
	for _, win := range [][2]int64{
		{0, int64(len(bytesAt))}, {300 << 10, 2 * mib}, {100 << 10, 700 << 10}, {mib + 600<<10, 400 << 10},
		{5*mib/2 - 100, 300 << 10}, {11 * mib / 4, 100 << 10}, {3*mib + 100, int64(len(bytesAt)) - 3*mib - 100},
	} {
		off, n := win[0], win[1]
		for _, cons := range consumers {
			r, err := largeBlob.NewReader(ctx, 0, off, n)
			if err != nil {
				t.Fatalf("reader [%d,%d): %v", off, off+n, err)
			}
			got, err := cons.read(r)
			r.Close()
			if err != nil || !bytes.Equal(got, bytesAt[off:off+n]) {
				t.Fatalf("%s of window [%d,%d): %d bytes, %v; differs from the bytes written", cons.name, off, off+n, len(got), err)
			}
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

// storedOn lists the providers of b holding chunk id.
func (b *bed) storedOn(id chunk.ID) []string {
	var out []string
	for pid, p := range b.providers {
		if p.Has(id) {
			out = append(out, pid)
		}
	}
	return out
}

// TestAbortedCloseLeavesFlushedChunksForSweep cancels a writer after its slots
// flushed: Close must not publish, and the flushed chunks stay on their
// providers, referenced by no version — the sweep's to free once the
// writer's chunk lease is gone. The writer frees nothing itself.
func TestAbortedCloseLeavesFlushedChunksForSweep(t *testing.T) {
	b := newBed(t, 2)
	c := b.client("alice")
	info, _ := c.Create(context.Background(), 8)
	ctx, cancel := context.WithCancel(context.Background())
	blob, _ := c.Open(ctx, info.ID)
	w, err := blob.NewWriter(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	slots := []string{"aaaaaaaa", "bbbbbbbb", "cccccccc"}
	if _, err := w.Write([]byte(strings.Join(slots, ""))); err != nil { // three full slots
		t.Fatal(err)
	}
	// Let the background flushes land before aborting.
	flushed := func() bool {
		for _, slot := range slots {
			if len(b.storedOn(chunk.Sum([]byte(slot)))) == 0 {
				return false
			}
		}
		return true
	}
	waitFor(t, "slots to flush", flushed)
	cancel()
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted Close: %v", err)
	}
	if vm, err := b.vm.Latest(info.ID); err != nil || vm.Version != 0 {
		t.Fatalf("aborted Close published: %+v, %v", vm, err)
	}
	if !flushed() {
		t.Fatal("the aborted writer freed its flushed chunks; only the sweep may")
	}
}

// failStoreConn rejects every Store and passes everything else through.
type failStoreConn struct{ Conn }

func (c failStoreConn) Store(context.Context, string, chunk.ID, []byte) error {
	return errors.New("disk full")
}

// TestQuorumFailureLeavesLandedReplicasForSweep fails one of three replicas so the
// slot misses its (default: all) write quorum: nothing is published, and
// the two replicas that did land stay stored, unreferenced by any
// version, for the sweep to free.
func TestQuorumFailureLeavesLandedReplicasForSweep(t *testing.T) {
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
	if vm, err := b.vm.Latest(info.ID); err != nil || vm.Version != 0 {
		t.Fatalf("quorum-failed Close published: %+v, %v", vm, err)
	}
	held := b.storedOn(chunk.Sum([]byte("12345678")))
	sort.Strings(held)
	if !slices.Equal(held, []string{"p00", "p01"}) {
		t.Fatalf("orphan replicas on %v, want [p00 p01] (the stores that landed)", held)
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
		vm:        vmanager.New(blobmeta.NewMemStore("m1", nil, nil)),
		pm:        pmanager.New(pmanager.WithStrategy(pmanager.LeastUsed{})),
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
	for pid, p := range b.providers {
		if p.Stats().Chunks > 0 {
			used[pid] = true
		}
	}
	if len(used) < 2 {
		t.Fatalf("8 streamed chunks all landed on %d provider(s) — per-slot allocation defeats LeastUsed spreading", len(used))
	}
}

// TestSeekEvictionCancelsInFlightFetches reads chunk 3 so the prefetch
// window behind it parks the fetch of chunk 4, then moves the window
// back to zero: the evicted future's fetch must be cancelled promptly,
// so in-flight transfers — not just map entries — stay bounded by the
// window.
func TestSeekEvictionCancelsInFlightFetches(t *testing.T) {
	b := newBed(t, 4)
	writer := b.client("alice")
	info, _ := writer.Create(context.Background(), 8)
	if _, err := writer.Write(context.Background(), info.ID, 0, bytes.Repeat([]byte("w"), 48)); err != nil {
		t.Fatal(err)
	}
	fetches := &fetchLog{}
	dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
		conn, err := b.Lookup(ctx, id)
		return gatedConn{Conn: conn, log: fetches}, err
	})
	c := New("alice", b.vm, b.pm, dir, WithPrefetch(2))
	ctx := context.Background()
	blob, _ := c.Open(ctx, info.ID)
	r, err := blob.NewReader(ctx, 0, 0, 48)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Seek(24, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	// Park chunk 3's demand fetch, then arm again so the window's fetch
	// of chunk 4 parks once the demand fetch is released.
	parked, release := fetches.arm()
	errc := make(chan error, 1)
	go func() {
		_, err := r.Read(make([]byte, 1))
		errc <- err
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("chunk 3's demand fetch never parked")
	}
	parked, hold := fetches.arm()
	defer close(hold)
	close(release)
	if err := <-errc; err != nil { // serves chunk 3, parks 4
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the window's fetch of chunk 4 never parked")
	}
	f4 := r.futures[4]
	if f := r.ensure(0); f != nil { // window moves to [0,2): 3 and 4 evicted
		t.Fatal("ensure opened a window for demand chunk 0")
	}
	select {
	case <-f4.done:
		if !errors.Is(f4.err, context.Canceled) {
			t.Fatalf("evicted fetch finished with %v, want context.Canceled", f4.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evicted in-flight fetch was not cancelled")
	}
	if len(r.futures) != 0 {
		t.Fatalf("futures=%d after window move, want 0", len(r.futures))
	}
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

// slowFetchConn delays every fetch by d.
type slowFetchConn struct {
	Conn
	d time.Duration
}

func (c slowFetchConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	time.Sleep(c.d)
	return c.Conn.Fetch(ctx, user, id)
}

// TestReaderFetchesAwaitedChunkAsStall: a reader fetches the chunk it
// awaits on its own goroutine when nothing is fetching it yet, and the
// stall histogram times that fetch — a consumer waiting on its own fetch
// is stalled as surely as one waiting on a prefetch — once: every await
// observes exactly one stall, the demand chunk's included.
func TestReaderFetchesAwaitedChunkAsStall(t *testing.T) {
	const delay = 20 * time.Millisecond
	for _, tc := range []struct {
		name     string
		data     string
		prefetch int
		count    int
		atLeast  time.Duration
	}{
		{"one demand chunk", "8 bytes!", 4, 1, delay},
		{"every chunk on demand", "8 bytes!8 more!!and last", 1, 3, 3 * delay}, // a window of one never prefetches
		{"demand then prefetched", "8 bytes!and 8 more", 4, 3, delay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBed(t, 2)
			ctx := context.Background()
			info, _ := b.client("alice").Create(ctx, 8)
			data := []byte(tc.data)
			if _, err := b.client("alice").Write(ctx, info.ID, 0, data); err != nil {
				t.Fatal(err)
			}
			dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
				conn, err := b.Lookup(ctx, id)
				return slowFetchConn{Conn: conn, d: delay}, err
			})
			c := New("alice", b.vm, b.pm, dir, WithMetrics(metrics.NewRegistry()), WithPrefetch(tc.prefetch))
			blob, _ := c.Open(ctx, info.ID)
			r, err := blob.NewReader(ctx, 0, 0, int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, err := io.ReadAll(r)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read %q, %v; want %q", got, err, data)
			}
			if h := c.m.readerStall; h.Count() != int64(tc.count) || h.Sum() < tc.atLeast.Seconds() {
				t.Fatalf("reader stall: %d observations summing to %.3f s, want %d of at least %.3f s in all",
					h.Count(), h.Sum(), tc.count, tc.atLeast.Seconds())
			}
		})
	}
}

// fetchLog gates the Fetches of a gatedConn: it records the chunk and
// range of each in issue order, parks the first one issued after arm
// until the returned release channel closes (or its context ends), and
// fails every Fetch while fail is set.
type fetchLog struct {
	mu      sync.Mutex
	issued  []chunk.ID
	ranges  [][2]int64    // chunk.RangeFrom of each issued Fetch
	parked  chan struct{} // armed: closed once the next Fetch parks
	release chan struct{}
	fail    error
}

func (l *fetchLog) arm() (parked, release chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.parked, l.release = make(chan struct{}), make(chan struct{})
	return l.parked, l.release
}

func (l *fetchLog) setFail(err error) {
	l.mu.Lock()
	l.fail = err
	l.mu.Unlock()
}

// since returns the chunks fetched after the first n, by index in idx.
func (l *fetchLog) since(n int, idx map[chunk.ID]int64) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int64
	for _, id := range l.issued[n:] {
		out = append(out, idx[id])
	}
	return out
}

// rangesSince returns the ranges of the Fetches issued after the first n.
func (l *fetchLog) rangesSince(n int) [][2]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.ranges[n:])
}

func (l *fetchLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.issued)
}

type gatedConn struct {
	Conn
	log *fetchLog
}

func (c gatedConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	l := c.log
	l.mu.Lock()
	l.issued = append(l.issued, id)
	off, n := chunk.RangeFrom(ctx)
	l.ranges = append(l.ranges, [2]int64{off, n})
	parked, release, fail := l.parked, l.release, l.fail
	l.parked, l.release = nil, nil
	l.mu.Unlock()
	if fail != nil {
		return nil, fail
	}
	if parked != nil {
		close(parked)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return c.Conn.Fetch(ctx, user, id)
}

// TestReaderFetchesDemandChunkFirst: a chunk the consumer awaits while
// nothing is fetching it goes out alone, and the prefetch window opens
// behind it only once it lands — on a fresh reader and after a Seek out
// of the window. A failed demand fetch opens no window; an awaited hole
// needs no fetch and opens the window at once.
func TestReaderFetchesDemandChunkFirst(t *testing.T) {
	b := newBed(t, 2)
	ctx := context.Background()
	w := b.client("alice")
	var payload []byte
	for i := 0; i < 20; i++ {
		payload = append(payload, fmt.Sprintf("chunk%03d", i)...) // distinct IDs
	}
	full, _ := w.Create(ctx, 8)
	holey, _ := w.Create(ctx, 8)
	if _, err := w.Write(ctx, full.ID, 0, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(ctx, holey.ID, 16, payload[16:]); err != nil { // chunks 0 and 1 are holes
		t.Fatal(err)
	}
	fetches := &fetchLog{}
	dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
		conn, err := b.Lookup(ctx, id)
		return gatedConn{Conn: conn, log: fetches}, err
	})
	c := New("alice", b.vm, b.pm, dir, WithPrefetch(8))
	open := func(id uint64) (*BlobReader, map[chunk.ID]int64) {
		blob, err := c.Open(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		r, err := blob.NewReader(ctx, 0, 0, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		idx := map[chunk.ID]int64{}
		for i, d := range r.descs {
			idx[d.ID] = r.loIdx + int64(i)
		}
		return r, idx
	}
	within := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	// window waits for the fetches issued after mark to be exactly
	// first, then the rest of the window [first, first+n), in any order.
	window := func(mark int, idx map[chunk.ID]int64, first, n int64) {
		t.Helper()
		waitFor(t, "the window's fetches", func() bool { return len(fetches.since(mark, idx)) >= int(n) })
		got := fetches.since(mark, idx)
		seen := map[int64]bool{}
		for _, i := range got {
			if i >= first && i < first+n {
				seen[i] = true
			}
		}
		if got[0] != first || len(got) != int(n) || len(seen) != int(n) {
			t.Fatalf("fetches %v, want chunk %d then the window up to %d once each", got, first, first+n-1)
		}
	}
	// demandAlone reads one byte at chunk first with the first Fetch
	// parked: until it is released nothing else may be fetched, and then
	// the window [first, first+n) follows.
	demandAlone := func(r *BlobReader, idx map[chunk.ID]int64, first, n int64) {
		t.Helper()
		mark := fetches.len()
		parked, release := fetches.arm()
		errc := make(chan error, 1)
		go func() {
			_, err := r.Read(make([]byte, 1))
			errc <- err
		}()
		within("the demand fetch to park", parked)
		time.Sleep(20 * time.Millisecond) // room for a prefetch to jump the queue
		if got := fetches.since(mark, idx); len(got) != 1 || got[0] != first {
			t.Fatalf("while chunk %d's fetch was parked the reader fetched %v, want it alone", first, got)
		}
		close(release)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		window(mark, idx, first, n)
	}

	r, idx := open(full.ID)
	defer r.Close()
	demandAlone(r, idx, 0, 8)
	if _, err := r.Seek(12*8, io.SeekStart); err != nil { // out of the window [0,8)
		t.Fatal(err)
	}
	demandAlone(r, idx, 12, 8)

	// A failing demand fetch fails the Read and opens no window.
	errBoom := errors.New("boom")
	fetches.setFail(errBoom)
	fr, fidx := open(full.ID)
	defer fr.Close()
	mark := fetches.len()
	for range 2 { // the error sticks
		if _, err := fr.Read(make([]byte, 1)); !errors.Is(err, errBoom) {
			t.Fatalf("Read with a failing demand fetch: %v, want %v", err, errBoom)
		}
	}
	time.Sleep(20 * time.Millisecond)
	for _, i := range fetches.since(mark, fidx) {
		if i != 0 {
			t.Fatalf("a failed demand fetch was followed by fetches %v, want chunk 0 only", fetches.since(mark, fidx))
		}
	}
	fetches.setFail(nil)

	// An awaited hole needs no fetch: the Read returns while the window's
	// first fetch is parked, and the window [0,8) opens at once — its data
	// chunks 2 to 7.
	hr, hidx := open(holey.ID)
	defer hr.Close()
	mark = fetches.len()
	_, release := fetches.arm()
	defer close(release)
	one := []byte{1}
	if _, err := hr.Read(one); err != nil || one[0] != 0 {
		t.Fatalf("hole read %v, %v; want a zero byte", one, err)
	}
	waitFor(t, "the window's fetches", func() bool { return len(fetches.since(mark, hidx)) == 6 })
	for _, i := range fetches.since(mark, hidx) {
		if i < 2 || i >= 8 {
			t.Fatalf("hole read fetched %v, want the window's data chunks 2 to 7", fetches.since(mark, hidx))
		}
	}
}

const mib = 1 << 20

// noise returns n bytes of seeded noise: no two chunk offsets alike, so a
// byte served from the wrong offset shows.
func noise(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// headBed writes chunks distinct 1 MiB chunks, each on two replicas, and
// returns a client that reads them through a gatedConn on the returned
// log, each Fetch under wrap, with the payload.
func headBed(t *testing.T, chunks int, wrap func(id string, c Conn) Conn, opts ...Option) (*Client, uint64, []byte, *fetchLog) {
	t.Helper()
	b := newBed(t, 2)
	ctx := context.Background()
	w := b.client("alice", WithReplicas(2))
	info, err := w.Create(ctx, mib)
	if err != nil {
		t.Fatal(err)
	}
	payload := noise(1, chunks*mib)
	if _, err := w.Write(ctx, info.ID, 0, payload); err != nil {
		t.Fatal(err)
	}
	fetches := &fetchLog{}
	dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
		conn, err := b.Lookup(ctx, id)
		if err == nil && wrap != nil {
			conn = wrap(id, conn)
		}
		return gatedConn{Conn: conn, log: fetches}, err
	})
	return New("alice", b.vm, b.pm, dir, opts...), info.ID, payload, fetches
}

// openAll opens a reader over the whole of blob id.
func openAll(t *testing.T, c *Client, id uint64) *BlobReader {
	t.Helper()
	blob, err := c.Open(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	r, err := blob.NewReader(context.Background(), 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReaderHandsHeadOverBeforeRemainder: from a demand part of splitMin
// or more the reader fetches only a headBytes head and hands it over; the
// part's remainder is fetched only when the consumer comes back, and the
// head's bytes keep reaching the consumer while that fetch is parked.
func TestReaderHandsHeadOverBeforeRemainder(t *testing.T) {
	c, id, payload, fetches := headBed(t, 2, nil, WithPrefetch(1)) // a window of one: the remainder is the only fetch
	r := openAll(t, c, id)
	defer r.Close()
	var got []byte
	buf := make([]byte, 4<<10)
	read := func() {
		t.Helper()
		n, err := r.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	read()
	time.Sleep(20 * time.Millisecond) // room for a fetch to start early
	if rs := fetches.rangesSince(0); !slices.Equal(rs, [][2]int64{{0, headBytes}}) {
		t.Fatalf("the first Read fetched %v, want the head [0, %d) alone", rs, headBytes)
	}
	parked, release := fetches.arm()
	for len(got) < headBytes {
		read() // served from the head while the remainder's fetch parks
	}
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the remainder's fetch never started")
	}
	if rs := fetches.rangesSince(1); !slices.Equal(rs, [][2]int64{{headBytes, mib - headBytes}}) {
		t.Fatalf("after the head was handed over the reader fetched %v, want the remainder alone", rs)
	}
	close(release)
	rest, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(append(got, rest...), payload) {
		t.Fatalf("read %d bytes, %v; want the %d written", len(got)+len(rest), err, len(payload))
	}
}

// gateWriter collects what is written to it. Its first Write closes
// entered, records its length and blocks until unblock closes.
type gateWriter struct {
	bytes.Buffer
	entered, unblock chan struct{}
	first            int
}

func (w *gateWriter) Write(p []byte) (int, error) {
	if w.entered != nil {
		w.first = len(p)
		close(w.entered)
		w.entered = nil
		<-w.unblock
	}
	return w.Buffer.Write(p)
}

// TestReaderWriteToFetchesNothingPastHeadWhileWriting: while WriteTo's
// first Write (the head) is blocked in the consumer, neither the part's
// remainder nor the window is fetched; once it returns, both are.
func TestReaderWriteToFetchesNothingPastHeadWhileWriting(t *testing.T) {
	c, id, payload, fetches := headBed(t, 3, nil, WithPrefetch(4))
	r := openAll(t, c, id)
	defer r.Close()
	entered, unblock := make(chan struct{}), make(chan struct{})
	w := &gateWriter{entered: entered, unblock: unblock}
	errc := make(chan error, 1)
	go func() {
		_, err := r.WriteTo(w)
		errc <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("WriteTo never wrote")
	}
	time.Sleep(20 * time.Millisecond) // room for a fetch to start early
	if rs := fetches.rangesSince(0); !slices.Equal(rs, [][2]int64{{0, headBytes}}) {
		t.Fatalf("while the head's Write was blocked the reader fetched %v, want the head alone", rs)
	}
	close(unblock)
	if err := <-errc; err != nil || w.first != headBytes || !bytes.Equal(w.Bytes(), payload) {
		t.Fatalf("WriteTo: %v; first Write %d bytes, %d in all; want %d, then the %d written", err, w.first, w.Len(), headBytes, len(payload))
	}
	rs := fetches.rangesSince(1) // the remainder and the window's two whole chunks, in any order
	slices.SortFunc(rs, func(a, b [2]int64) int { return int(b[0] - a[0]) })
	if !slices.Equal(rs, [][2]int64{{headBytes, mib - headBytes}, {0, 0}, {0, 0}}) {
		t.Fatalf("after the head the reader fetched %v, want the remainder and two whole chunks", rs)
	}
}

// TestReaderFailedHeadOpensNothing: a demand head whose fetch fails on
// every replica fails the Read, and the error sticks; no remainder and no
// window is fetched.
func TestReaderFailedHeadOpensNothing(t *testing.T) {
	c, id, _, fetches := headBed(t, 3, nil, WithPrefetch(4))
	errBoom := errors.New("boom")
	fetches.setFail(errBoom)
	r := openAll(t, c, id)
	defer r.Close()
	for range 2 {
		if _, err := r.Read(make([]byte, 1)); !errors.Is(err, errBoom) {
			t.Fatalf("Read with a failing head: %v, want %v", err, errBoom)
		}
	}
	time.Sleep(20 * time.Millisecond)
	for _, rg := range fetches.rangesSince(0) {
		if rg != [2]int64{0, headBytes} {
			t.Fatalf("a failed head was followed by fetches %v, want the head's alone", fetches.rangesSince(0))
		}
	}
	if len(r.futures) != 0 {
		t.Fatalf("a failed head left %d futures", len(r.futures))
	}
}

// failRangeConn fails every Fetch of the range starting at off.
type failRangeConn struct {
	Conn
	off    int64
	failed *atomic.Int64
}

func (c failRangeConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	if off, _ := chunk.RangeFrom(ctx); off == c.off {
		c.failed.Add(1)
		return nil, errors.New("replica lost the remainder")
	}
	return c.Conn.Fetch(ctx, user, id)
}

// TestReaderRemainderFailsOver: a remainder whose first replica fails is
// served by the second.
func TestReaderRemainderFailsOver(t *testing.T) {
	var failed atomic.Int64
	var first string // the first replica of chunk 0, tried first
	c, id, payload, _ := headBed(t, 1, func(pid string, conn Conn) Conn {
		if pid == first {
			return failRangeConn{Conn: conn, off: headBytes, failed: &failed}
		}
		return conn
	})
	r := openAll(t, c, id)
	defer r.Close()
	first = r.descs[0].Providers[0]
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read %d bytes, %v; want the %d written", len(got), err, len(payload))
	}
	if failed.Load() != 1 {
		t.Fatalf("the first replica failed the remainder %d times, want 1", failed.Load())
	}
}

// lendConn answers every Fetch with a lent copy of the reply and counts,
// per chunk and range offset, the PutBufs that release it: a reader must
// donate each buffer it received exactly once.
type lendConn struct {
	Conn
	l *lendings
}

type lendKey struct {
	id  chunk.ID
	off int64
}

type lendings struct {
	mu      sync.Mutex
	lent    [][]byte
	donated map[lendKey]int
}

func (c lendConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	data, err := c.Conn.Fetch(ctx, user, id)
	if err != nil {
		return nil, err
	}
	buf := append([]byte(nil), data...)
	chunk.PutBuf(data)
	off, _ := chunk.RangeFrom(ctx)
	l := c.l
	l.mu.Lock()
	l.lent = append(l.lent, buf)
	l.mu.Unlock()
	chunk.Lend(buf, func() {
		l.mu.Lock()
		l.donated[lendKey{id, off}]++
		l.mu.Unlock()
	})
	return buf, nil
}

// count returns the donations of k and of all lent buffers.
func (l *lendings) count(k lendKey) (n, total, lent int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, d := range l.donated {
		total += d
	}
	return l.donated[k], total, len(l.lent)
}

// TestSeekBetweenHeadAndRemainderDropsBoth: a Seek out of the window
// after a head was handed over and its remainder started evicts both: a
// landed remainder is donated, a parked one cancelled, and each buffer
// the reader received is donated exactly once, Close included.
func TestSeekBetweenHeadAndRemainderDropsBoth(t *testing.T) {
	for _, parkRest := range []bool{false, true} {
		t.Run(fmt.Sprintf("parked=%v", parkRest), func(t *testing.T) {
			l := &lendings{donated: map[lendKey]int{}}
			t.Cleanup(func() {
				for _, b := range l.lent {
					chunk.Lend(b, nil)
				}
			})
			c, id, payload, fetches := headBed(t, 4, func(_ string, conn Conn) Conn {
				return lendConn{Conn: conn, l: l}
			}, WithPrefetch(1))
			r := openAll(t, c, id)
			defer r.Close()
			one := make([]byte, 1)
			if _, err := r.Read(one); err != nil { // the head of chunk 0
				t.Fatal(err)
			}
			var parked, release chan struct{}
			if parkRest {
				parked, release = fetches.arm()
				defer close(release)
			}
			if _, err := r.Read(one); err != nil { // starts the remainder
				t.Fatal(err)
			}
			rest := r.futures[0].rest
			within := func(what string, ch <-chan struct{}) {
				t.Helper()
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Fatalf("timed out waiting for %s", what)
				}
			}
			if parkRest {
				within("the remainder to park", parked)
			} else {
				within("the remainder to land", rest.done)
			}
			if _, err := r.Seek(3*mib, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Read(one); err != nil || one[0] != payload[3*mib] {
				t.Fatalf("read after the Seek: %v, %v", one, err)
			}
			if parkRest {
				within("the evicted remainder to end", rest.done)
				if !errors.Is(rest.err, context.Canceled) {
					t.Fatalf("the evicted remainder's fetch ended with %v, want context.Canceled", rest.err)
				}
			}
			id0, id3 := r.descs[0].ID, r.descs[3].ID
			wantRest := 1
			if parkRest {
				wantRest = 0 // cancelled before it received a buffer
			}
			if head, _, _ := l.count(lendKey{id0, 0}); head != 1 {
				t.Fatalf("the evicted head was donated %d times, want 1", head)
			}
			if n, _, _ := l.count(lendKey{id0, headBytes}); n != wantRest {
				t.Fatalf("the evicted remainder was donated %d times, want %d", n, wantRest)
			}
			r.Close()
			if head, total, lent := l.count(lendKey{id3, 0}); head != 1 || total != lent {
				t.Fatalf("after Close chunk 3's head was donated %d times and %d donations met %d buffers, want 1 and each once", head, total, lent)
			}
		})
	}
}

// TestReaderSkipsShortChunkZeroTail: a window wholly past a short chunk's
// stored bytes reads zeros and fetches nothing; there is nothing to move.
func TestReaderSkipsShortChunkZeroTail(t *testing.T) {
	b := newBed(t, 2)
	ctx := context.Background()
	w := b.client("alice")
	info, _ := w.Create(ctx, 64)
	if _, err := w.Write(ctx, info.ID, 0, []byte("0123456789")); err != nil { // chunk 0 holds 10 bytes
		t.Fatal(err)
	}
	if _, err := w.Write(ctx, info.ID, 64, []byte("chunk one!")); err != nil {
		t.Fatal(err)
	}
	fetches := &fetchLog{}
	dir := DirectoryFunc(func(ctx context.Context, id string) (Conn, error) {
		conn, err := b.Lookup(ctx, id)
		return gatedConn{Conn: conn, log: fetches}, err
	})
	blob, _ := New("alice", b.vm, b.pm, dir).Open(ctx, info.ID)
	for _, viaWriteTo := range []bool{false, true} {
		r, err := blob.NewReader(ctx, 0, 20, 30)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		if viaWriteTo {
			var buf bytes.Buffer
			_, err = r.WriteTo(&buf)
			got = buf.Bytes()
		} else {
			got, err = io.ReadAll(r)
		}
		r.Close()
		if err != nil || !bytes.Equal(got, make([]byte, 30)) {
			t.Fatalf("WriteTo=%v: read %q, %v; want 30 zeros", viaWriteTo, got, err)
		}
	}
	if n := fetches.len(); n != 0 {
		t.Fatalf("reading a short chunk's zero tail issued %d fetches, want 0", n)
	}
}
