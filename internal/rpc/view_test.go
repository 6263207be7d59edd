package rpc

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"blobseer/internal/chunk"
	"blobseer/internal/provider"
)

// TestInProcessFetchIsOwned: only the rpc server takes loans. An
// in-process Fetch of a disk-backed provider, whole or ranged, is read
// with ReadAt into a buffer the caller owns and may write into.
func TestInProcessFetchIsOwned(t *testing.T) {
	p := provider.New("p1", "z", 0, provider.WithStore(openDisk(t, t.TempDir())))
	data := randBytes(rand.New(rand.NewSource(7)), 64<<10)
	id := chunk.Sum(data)
	if err := p.Store(bg, "u", id, data); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ off, n int64 }{{0, 0}, {100, 1000}, {int64(len(data)), 1}} {
		got, err := p.Fetch(chunk.WithRange(bg, r.off, r.n), "u", id)
		if err != nil {
			t.Fatal(err)
		}
		want := data[r.off:]
		if r.n > 0 {
			want = want[:min(r.n, int64(len(want)))]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fetch of [%d, +%d) returned the wrong %d bytes", r.off, r.n, len(got))
		}
		if chunk.Lent(got) {
			t.Fatalf("an in-process fetch of [%d, +%d) returned a lent view", r.off, r.n)
		}
		for i := range got {
			got[i] ^= 0xff
		}
		chunk.PutBuf(got)
	}
}

// TestFaultingViewFailsFetch: a page of a view that cannot be read fails
// the call that reads it, not the process. With the segment file
// truncated under a mapped record, an rpc Fetch fails that call and that
// conn while the server serves the next one, and an in-process Fetch,
// which reads with ReadAt, returns an error.
func TestFaultingViewFailsFetch(t *testing.T) {
	dir := t.TempDir()
	p := provider.New("p1", "z", 0, provider.WithStore(openDisk(t, dir)))
	srv, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn := mustDial(t, srv.Addr())
	data := randBytes(rand.New(rand.NewSource(8)), 64<<10)
	id := chunk.Sum(data)
	if err := conn.Store(bg, "u", id, data); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Fetch(bg, "u", id) // maps the segment
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch before the truncation: %d bytes, err=%v", len(got), err)
	}
	chunk.PutBuf(got)
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in %s (err %v)", dir, err)
	}
	for _, seg := range segs {
		if err := os.Truncate(seg, 0); err != nil {
			t.Fatal(err)
		}
	}

	if got, err := p.Fetch(bg, "u", id); err == nil {
		t.Fatalf("an in-process fetch of a truncated record returned %d bytes", len(got))
	}
	if got, err := conn.Fetch(bg, "u", id); err == nil {
		t.Fatalf("an rpc fetch of a truncated record returned %d bytes", len(got))
	}
	if _, err := conn.AdvanceEpoch(bg); err == nil {
		t.Fatal("the conn whose reply faulted still serves calls")
	}
	if _, err := mustDial(t, srv.Addr()).AdvanceEpoch(bg); err != nil {
		t.Fatalf("the server after a faulting reply: %v", err)
	}
}
