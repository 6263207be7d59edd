package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"blobseer/internal/chunk"
)

// encoded returns rec's wire form: header then payload, as the append
// path writes them.
func encoded(rec record) []byte {
	buf := make([]byte, headerSize, headerSize+len(rec.payload))
	rec.encodeHeader(buf)
	return append(buf, rec.payload...)
}

// formatV1Ops is the operation sequence behind testdata/format-v1, which
// the append path of the commit before cost–benefit compaction (one
// staged record.encode buffer per record) wrote with SegmentBytes 1 KiB:
// puts on both sides of a roll, a re-put, a delete, a purge and two
// epoch advances.
func formatV1Ops(t *testing.T, s *DiskStore) {
	t.Helper()
	a := mustPut(t, s, payload(1, 300))
	b := mustPut(t, s, payload(2, 1))
	mustPut(t, s, payload(3, 700)) // rolls the 1 KiB segment
	s.AdvanceEpoch()
	mustPut(t, s, payload(1, 300)) // re-put: recState refs=2 epoch=1
	if err := s.Delete(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Purge(b); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, payload(4, 900))
	s.AdvanceEpoch()
	mustPut(t, s, payload(5, 64))
}

func segmentFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segment files in %s: %v", dir, err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = b
	}
	return out
}

// TestFormatUnchanged pins the on-disk format in both directions: a
// directory the previous append path wrote opens to the state its
// operations describe, and the same operations now write the same
// bytes, so the previous code opens what this one writes.
func TestFormatUnchanged(t *testing.T) {
	fixture := segmentFiles(t, filepath.Join("testdata", "format-v1"))

	dir := t.TempDir()
	for name, b := range fixture {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := reopen(t, dir, Options{SegmentBytes: 1 << 10})
	if s.Count() != 4 || s.Used() != 300+700+900+64 || s.Epoch() != 2 {
		t.Fatalf("fixture opened to Count=%d Used=%d Epoch=%d, want 4/1964/2", s.Count(), s.Used(), s.Epoch())
	}
	want := map[chunk.ID]struct {
		refs  int
		epoch uint64
		seed  int
		size  int
	}{
		chunk.Sum(payload(1, 300)): {1, 1, 1, 300}, // put, re-put at epoch 1, one delete
		chunk.Sum(payload(3, 700)): {1, 0, 3, 700},
		chunk.Sum(payload(4, 900)): {1, 1, 4, 900},
		chunk.Sum(payload(5, 64)):  {1, 2, 5, 64},
	}
	for _, ci := range listAll(s) {
		w, ok := want[ci.ID]
		if !ok || ci.Refs != w.refs || ci.Epoch != w.epoch {
			t.Fatalf("fixture chunk %s: %+v, want %+v", ci.ID.Short(), ci, w)
		}
		if got, err := s.Get(ci.ID); err != nil || !bytes.Equal(got, payload(w.seed, w.size)) {
			t.Fatalf("fixture chunk %s unreadable: %v", ci.ID.Short(), err)
		}
	}
	if s.Has(chunk.Sum(payload(2, 1))) {
		t.Fatal("purged fixture chunk came back")
	}

	fresh := t.TempDir()
	s2 := reopen(t, fresh, Options{SegmentBytes: 1 << 10})
	formatV1Ops(t, s2)
	s2.Close()
	got := segmentFiles(t, fresh)
	if len(got) != len(fixture) {
		t.Fatalf("wrote %d segments, the fixture has %d", len(got), len(fixture))
	}
	for name, b := range fixture {
		if !bytes.Equal(got[name], b) {
			t.Errorf("%s differs from the fixture: the record format or the append path's output changed", name)
		}
	}
}

// failingFile passes budget bytes through to the segment file and fails
// the write that would exceed it, after writing what still fits — the
// shape of a disk filling up mid-record.
type failingFile struct {
	appendFile
	budget int
}

var errInjected = errors.New("injected write failure")

func (f *failingFile) Write(p []byte) (int, error) {
	if len(p) <= f.budget {
		f.budget -= len(p)
		return f.appendFile.Write(p)
	}
	n, _ := f.appendFile.Write(p[:f.budget])
	f.budget = 0
	return n, errInjected
}

// TestAppendFailureLeavesLogAligned: a record is a header write and a
// payload write, and the file can refuse either at any byte. Whatever
// part landed is cut off again, so the next record starts where the
// failed one did and a restart replays a clean log.
func TestAppendFailureLeavesLogAligned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
	}{
		{"before the header", 0},
		{"within the header", headerSize / 2},
		{"after the header, before the payload", headerSize},
		{"within the payload", headerSize + 100},
		{"one byte short", headerSize + 299},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := reopen(t, dir, Options{})
			first := mustPut(t, s, payload(1, 200))
			start := s.active.size
			real := s.active.w
			s.active.w = &failingFile{appendFile: real, budget: tc.budget}

			torn := payload(2, 300)
			if err := s.Put(chunk.Sum(torn), torn); !errors.Is(err, errInjected) {
				t.Fatalf("Put over a failing file: %v, want the injected failure", err)
			}
			fi, err := os.Stat(s.active.path)
			if err != nil {
				t.Fatal(err)
			}
			if s.active.size != start || fi.Size() != start {
				t.Fatalf("after the failed append seg.size=%d file=%d, want both at the record's start %d", s.active.size, fi.Size(), start)
			}
			if s.Has(chunk.Sum(torn)) || s.Used() != 200 {
				t.Fatalf("failed Put left state behind: Has=%v Used=%d", s.Has(chunk.Sum(torn)), s.Used())
			}

			s.active.w = real
			next := mustPut(t, s, payload(3, 400))
			if e := s.idx[next]; e.off != start+headerSize {
				t.Fatalf("next record's payload at %d, want %d: the log is misaligned", e.off, start+headerSize)
			}
			if got, err := s.Get(next); err != nil || !bytes.Equal(got, payload(3, 400)) {
				t.Fatalf("the record after the failed one reads back wrong: %v", err)
			}
			s.Close()

			r := reopen(t, dir, Options{})
			if r.Count() != 2 || r.Has(chunk.Sum(torn)) {
				t.Fatalf("replay: Count=%d Has(torn)=%v, want 2/false", r.Count(), r.Has(chunk.Sum(torn)))
			}
			for id, want := range map[chunk.ID][]byte{first: payload(1, 200), next: payload(3, 400)} {
				if got, err := r.Get(id); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("chunk %s after replay: %v", id.Short(), err)
				}
			}
		})
	}
}

// TestRelocationRestampsState: a relocated record is the old record's
// bytes, so a chunk whose refs and epoch moved after it was put must
// come out of compaction — and out of a replay of what compaction wrote
// — with the state it had, not the state in the bytes that were copied.
func TestRelocationRestampsState(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{SegmentBytes: 4 << 10})
	keep := payload(1, 512)
	id := mustPut(t, s, keep)
	var filler []chunk.ID
	for i := 0; i < 16; i++ {
		filler = append(filler, mustPut(t, s, payload(100+i, 512)))
	}
	s.AdvanceEpoch()
	mustPut(t, s, keep) // refs 2, epoch 1: a state record in a later segment
	for _, f := range filler {
		if _, err := s.Purge(f); err != nil {
			t.Fatal(err)
		}
	}
	if dropped, _, err := s.CompactOnce(); err != nil || dropped == 0 {
		t.Fatalf("CompactOnce = %d, %v: nothing compacted", dropped, err)
	}
	if e := s.idx[id]; e.seg == 1 {
		t.Fatal("the chunk's first segment was not compacted; the test exercises nothing")
	}
	check := func(s *DiskStore, when string) {
		t.Helper()
		infos := listAll(s)
		if len(infos) != 1 || infos[0].ID != id || infos[0].Refs != 2 || infos[0].Epoch != 1 {
			t.Fatalf("%s: %+v, want one chunk with refs 2 epoch 1", when, infos)
		}
		if got, err := s.Get(id); err != nil || !bytes.Equal(got, keep) {
			t.Fatalf("%s: payload lost: %v", when, err)
		}
	}
	check(s, "after compaction")
	s.Close()
	check(reopen(t, dir, Options{SegmentBytes: 4 << 10}), "after replay")
}

// FuzzDecodeRecord holds the record decoder and segment replay to three
// things on arbitrary bytes: they return instead of panicking; every
// record the scan accepts re-encodes to exactly the bytes it was read
// from; and a directory holding the bytes as its only segment opens —
// damage in the youngest segment is a torn tail, cut off — to a store
// whose every listed chunk reads back at its listed size and which
// compacts without error. Length fields are only believed up to the
// bytes present, so no input makes the scan allocate more than its own
// size. The seeds are real segments: the format fixture and a log that
// compaction relocated records into.
func FuzzDecodeRecord(f *testing.F) {
	for _, b := range segmentFiles(f, filepath.Join("testdata", "format-v1")) {
		f.Add(b)
	}
	f.Add(relocatedLog(f))
	f.Add(encoded(record{typ: recPut, refs: 1, id: chunk.Sum(nil)}))
	huge := encoded(record{typ: recPut, refs: 1, id: chunk.Sum([]byte("x")), payload: []byte("x")})
	binary.LittleEndian.PutUint32(huge[lenOff:], 1<<32-1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, in []byte) {
		_, _, _ = decodeHeader(in)
		end, err := scanRecords(bytes.NewReader(in), int64(len(in)), func(off int64, rec *record) {
			if raw := in[off : off+wireSize(len(rec.payload))]; !bytes.Equal(encoded(*rec), raw) {
				t.Fatalf("record at %d does not re-encode to its own bytes", off)
			}
		})
		if end < 0 || end > int64(len(in)) || (err == nil) != (end == int64(len(in))) {
			t.Fatalf("scan of %d bytes stopped at %d with err=%v", len(in), end, err)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan of an in-memory reader failed with a non-corruption error: %v", err)
		}

		// The whole replay path, with the checksums made good so that
		// mutated header fields reach the index bookkeeping.
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), rechecksummed(in), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openAt(dir, Options{CompactEvery: -1}, leapingClock())
		if err != nil {
			t.Fatalf("Open of a lone (tail) segment must cut damage off, not fail: %v", err)
		}
		defer s.Close()
		for _, ci := range listAll(s) {
			if got, err := s.Get(ci.ID); err != nil || int64(len(got)) != ci.Size {
				t.Fatalf("replayed chunk %s: %d bytes, err=%v, listed %d", ci.ID.Short(), len(got), err, ci.Size)
			}
		}
		if _, _, err := s.CompactOnce(); err != nil {
			t.Fatalf("CompactOnce over a replayed log: %v", err)
		}
	})
}

// rechecksummed walks in record by record, as far as its length fields
// stay inside it, giving each the magic and checksum its other bytes
// call for.
func rechecksummed(in []byte) []byte {
	out := bytes.Clone(in)
	for off := 0; len(out)-off >= headerSize; {
		n := int(binary.LittleEndian.Uint32(out[off+lenOff:]))
		if n > len(out)-off-headerSize {
			break
		}
		rec := out[off : off+headerSize+n]
		copy(rec[magicOff:], magic[:])
		restamp(rec, int32(binary.LittleEndian.Uint32(rec[refsOff:])), binary.LittleEndian.Uint64(rec[epochOff:]))
		off += len(rec)
	}
	return out
}

// relocatedLog returns a segment that compaction wrote relocated,
// restamped records into.
func relocatedLog(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := openAt(dir, Options{SegmentBytes: 2 << 10, CompactEvery: -1}, leapingClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put := func(i int) chunk.ID {
		d := payload(i, 256)
		id := chunk.Sum(d)
		if err := s.Put(id, d); err != nil {
			t.Fatal(err)
		}
		return id
	}
	var ids []chunk.ID
	for i := 0; i < 8; i++ {
		ids = append(ids, put(i))
	}
	s.AdvanceEpoch()
	put(0) // refs 2 at epoch 1: relocation has to restamp it
	for _, id := range ids[1:] {
		if _, err := s.Purge(id); err != nil {
			t.Fatal(err)
		}
	}
	if dropped, _, err := s.CompactOnce(); err != nil || dropped == 0 {
		t.Fatalf("CompactOnce = %d, %v", dropped, err)
	}
	b, err := os.ReadFile(s.active.path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
