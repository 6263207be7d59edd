package diskstore

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"blobseer/internal/chunk"
)

// TestViewOutlivesCompaction: a view pins its segment. Compacted away
// under the view, the file stays mapped, readable and unchanged until the
// view is donated, and is unlinked then.
func TestViewOutlivesCompaction(t *testing.T) {
	s, dir := open(t, Options{SegmentBytes: 1024})
	data := payload(1, 4096)
	id := mustPut(t, s, data) // past SegmentBytes: its segment is sealed
	path := segPath(dir, s.idx[id].seg)
	owned, err := s.GetAppend(id, nil)
	if err != nil || chunk.Lent(owned) || s.segs[s.idx[id].seg].mem != nil {
		t.Fatalf("a read that did not borrow was lent, or mapped its segment (err %v)", err)
	}
	chunk.PutBuf(owned)
	view, err := s.GetAppend(id, chunk.Borrow())
	if err != nil {
		t.Fatal(err)
	}
	if !chunk.Lent(view) {
		t.Fatal("a borrowing read was not lent")
	}
	if _, err := s.Purge(id); err != nil {
		t.Fatal(err)
	}
	if dropped, _, err := s.CompactOnce(); err != nil || dropped != 1 {
		t.Fatalf("CompactOnce dropped %d segments (err %v), want the view's", dropped, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("the segment under a view was reaped: %v", err)
	}
	if !bytes.Equal(view, data) {
		t.Fatal("the view changed under compaction")
	}
	chunk.PutBuf(view)
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the segment outlived its last view (stat: %v)", err)
	}
	if chunk.Lent(view) {
		t.Fatal("the reaped segment is still lent")
	}
}

// TestViewsUnderConcurrentCompaction: readers take views, check them and
// donate them while a writer churns and compaction moves their chunks and
// drops the segments under them. Every view reads its chunk's bytes, and
// once all are donated no segment file outlives its segment.
func TestViewsUnderConcurrentCompaction(t *testing.T) {
	s, dir := open(t, Options{SegmentBytes: 8 << 10})
	ids := make([]chunk.ID, 64)
	for i := range ids {
		ids[i] = mustPut(t, s, payload(i, 1024+i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[i%len(ids)]
				v, err := s.GetAppend(id, chunk.Borrow())
				if err != nil {
					t.Errorf("GetAppend: %v", err)
					return
				}
				if chunk.Sum(v) != id {
					t.Error("a view read another chunk's bytes")
				}
				chunk.PutBuf(v)
			}
		}(r)
	}
	var dropped int
	for round := 0; round < 20; round++ {
		for i := 0; i < 16; i++ {
			id := mustPut(t, s, payload(1000+round*16+i, 1024))
			if _, err := s.Purge(id); err != nil {
				t.Fatal(err)
			}
		}
		n, _, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		dropped += n
	}
	close(stop)
	wg.Wait()
	if dropped == 0 {
		t.Fatal("no segment was compacted away under the readers")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(files) != s.Segments() {
		t.Fatalf("%d segment files for %d live segments: a view's pin never came back", len(files), s.Segments())
	}
}

// TestCloseLeavesViewsReadable: Close unmaps the segments no view holds;
// the one a view holds stays mapped until the view is donated.
func TestCloseLeavesViewsReadable(t *testing.T) {
	s, _ := open(t, Options{})
	data := payload(2, 4096)
	id := mustPut(t, s, data)
	view, err := s.GetAppend(id, chunk.Borrow())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, data) {
		t.Fatal("the view changed under Close")
	}
	chunk.PutBuf(view)
	if chunk.Lent(view) {
		t.Fatal("the last view of a closed store left its segment mapped")
	}
}

// TestFailedReadDonatesItsBuffer: a read that does not borrow is read
// with ReadAt into a pool buffer, and when that read fails (here the file
// was truncated under the record) the buffer goes back to the pool, not
// to the GC.
func TestFailedReadDonatesItsBuffer(t *testing.T) {
	s, _ := open(t, Options{})
	const n = 64 << 10
	id := mustPut(t, s, payload(3, n))
	e := s.idx[id]
	if err := os.Truncate(s.segs[e.seg].path, e.off); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if got, err := s.GetAppend(id, nil); err == nil {
			t.Fatalf("a read of a truncated record returned %d bytes", len(got))
		}
	}
	read() // warm the pool's class
	const reads = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	// Under -race the pool drops a quarter of what it is given.
	if got := after.TotalAlloc - before.TotalAlloc; got >= reads/2*n {
		t.Fatalf("%d failed reads allocated %d bytes: their pool buffers were dropped, not donated", reads, got)
	}
}
