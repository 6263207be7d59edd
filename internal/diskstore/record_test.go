package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// formatOps is the operation sequence behind testdata/format-v3, which
// this append path writes with SegmentBytes 1 KiB: puts on both sides of
// a roll, a re-put (which appends nothing) and a purge. The older
// fixtures hold what earlier append paths wrote for the same sequence:
// format-v2 when stores kept the sweep clock, with an epoch advance
// before the re-put and another before the last put (a recEpoch each,
// the re-put a live recState, every record's epoch field its tag), and
// format-v1, before cost–benefit compaction, when stores still counted
// references, with a delete of the re-put chunk after its re-put (the
// chunk stayed live at refs 1).
func formatOps(t *testing.T, s *DiskStore) {
	t.Helper()
	mustPut(t, s, payload(1, 300))
	b := mustPut(t, s, payload(2, 1))
	mustPut(t, s, payload(3, 700)) // rolls the 1 KiB segment
	mustPut(t, s, payload(1, 300)) // re-put: appends nothing
	if _, err := s.Purge(b); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, payload(4, 900))
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

// TestFormatUnchanged pins the on-disk format in both directions: the
// directories the previous append paths wrote — format-v1 by stores that
// counted references, with a refs=2 record, and format-v2 by stores that
// kept the sweep clock, with recEpoch records, a live recState and epoch
// tags — open to the state their operations describe, and the same
// operations now write format-v3's bytes, which the code before this
// append path opens to that state too.
func TestFormatUnchanged(t *testing.T) {
	for _, name := range formats {
		dir := t.TempDir()
		for seg, b := range segmentFiles(t, filepath.Join("testdata", name)) {
			if err := os.WriteFile(filepath.Join(dir, seg), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := reopen(t, dir, Options{SegmentBytes: 1 << 10})
		if s.Count() != 4 || s.Used() != 300+700+900+64 {
			t.Fatalf("%s opened to Count=%d Used=%d, want 4/1964", name, s.Count(), s.Used())
		}
		want := map[chunk.ID]struct{ seed, size int }{
			chunk.Sum(payload(1, 300)): {1, 300}, // put, then re-put
			chunk.Sum(payload(3, 700)): {3, 700},
			chunk.Sum(payload(4, 900)): {4, 900},
			chunk.Sum(payload(5, 64)):  {5, 64},
		}
		for _, ci := range listAll(s) {
			w, ok := want[ci.ID]
			if !ok || ci.Size != int64(w.size) {
				t.Fatalf("%s chunk %s: %+v, want %+v", name, ci.ID.Short(), ci, w)
			}
			if got, err := s.Get(ci.ID); err != nil || !bytes.Equal(got, payload(w.seed, w.size)) {
				t.Fatalf("%s chunk %s unreadable: %v", name, ci.ID.Short(), err)
			}
		}
		if s.Has(chunk.Sum(payload(2, 1))) {
			t.Fatalf("purged %s chunk came back", name)
		}
	}

	fixture := segmentFiles(t, filepath.Join("testdata", formats[len(formats)-1]))
	fresh := t.TempDir()
	s2 := reopen(t, fresh, Options{SegmentBytes: 1 << 10})
	formatOps(t, s2)
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

// formats names the fixture directories, oldest first; the last is what
// this append path writes.
var formats = []string{"format-v1", "format-v2", "format-v3"}

// rawRecord returns the bytes of chunk id's put record as its segment
// file holds them.
func rawRecord(t *testing.T, s *DiskStore, id chunk.ID) []byte {
	t.Helper()
	e, ok := s.idx[id]
	if !ok {
		t.Fatalf("chunk %s not indexed", id.Short())
	}
	buf := make([]byte, headerSize+e.size)
	if _, err := s.segs[e.seg].r.ReadAt(buf, e.off-headerSize); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRelocationCopiesRecord: compaction moves a live chunk's put record
// to the log head byte for byte — the record states the chunk's whole
// state, so nothing in it is rewritten — and a replay of what compaction
// wrote reads the chunk back.
func TestRelocationCopiesRecord(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{SegmentBytes: 4 << 10})
	keep := payload(1, 512)
	id := mustPut(t, s, keep)
	var filler []chunk.ID
	for i := 0; i < 16; i++ {
		filler = append(filler, mustPut(t, s, payload(100+i, 512)))
	}
	victim := rawRecord(t, s, id)
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
	if moved := rawRecord(t, s, id); !bytes.Equal(moved, victim) {
		t.Fatal("the relocated record differs from the victim's")
	}
	s.Close()
	r := reopen(t, dir, Options{SegmentBytes: 4 << 10})
	if infos := listAll(r); len(infos) != 1 || infos[0].ID != id {
		t.Fatalf("after replay: %+v, want the one chunk", infos)
	}
	if got, err := r.Get(id); err != nil || !bytes.Equal(got, keep) {
		t.Fatalf("after replay: payload lost: %v", err)
	}
}

// TestOldRestatementsCompactAway: a segment an older store wrote that
// holds nothing but live re-statements (recState, refs 1, each with an
// epoch tag) and an epoch record keeps no chunk alive — the put records
// do — so compaction drops it whole, and its chunk still reads back
// after a reopen.
func TestOldRestatementsCompactAway(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{SegmentBytes: 4 << 10})
	data := payload(1, 512)
	id := mustPut(t, s, data)
	s.Close()
	var old []byte
	for e := uint64(1); e <= 3; e++ {
		for _, rec := range []record{{typ: recEpoch}, {typ: recState, refs: 1, id: id}} {
			b := encoded(rec)
			binary.LittleEndian.PutUint64(b[epochOff:], e)
			seal(b)
			old = append(old, b...)
		}
	}
	if err := os.WriteFile(segPath(dir, 2), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, 3), nil, 0o644); err != nil { // the head
		t.Fatal(err)
	}

	s, err := openAt(dir, Options{SegmentBytes: 4 << 10, CompactEvery: -1}, leapingClock())
	if err != nil {
		t.Fatal(err)
	}
	if seg := s.segs[2]; seg.livePayload != 0 || seg.stateRecs != 0 {
		t.Fatalf("the re-statements' segment counts %d payload bytes and %d records live, want none", seg.livePayload, seg.stateRecs)
	}
	if _, _, err := s.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	if _, kept := s.segs[2]; kept {
		t.Fatal("compaction kept the segment of re-statements")
	}
	s.Close()
	if _, err := os.Stat(segPath(dir, 2)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the re-statements' segment file is still there: %v", err)
	}
	r := reopen(t, dir, Options{SegmentBytes: 4 << 10})
	if r.Count() != 1 || r.Used() != 512 {
		t.Fatalf("reopened Count=%d Used=%d, want 1/512", r.Count(), r.Used())
	}
	if got, err := r.Get(id); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the chunk after the re-statements went: %v", err)
	}
}

// FuzzDecodeRecord holds the record decoder and segment replay to three
// things on arbitrary bytes: they return instead of panicking; every
// record the scan accepts re-encodes to exactly the bytes it was read
// from; and a directory holding the bytes as its only segment opens —
// damage in the youngest segment is a torn tail, cut off — to a store
// whose every listed chunk reads back at its listed size and which
// compacts without error. A record re-encodes with its epoch field 0,
// the one field the decoder drops. Length fields are only believed up to the
// bytes present, so no input makes the scan allocate more than its own
// size. The seeds are real segments: the format fixtures and a log that
// compaction relocated records into.
func FuzzDecodeRecord(f *testing.F) {
	for _, name := range formats {
		for _, b := range segmentFiles(f, filepath.Join("testdata", name)) {
			f.Add(b)
		}
	}
	f.Add(relocatedLog(f))
	f.Add(encoded(record{typ: recPut, refs: 1, id: chunk.Sum(nil)}))
	huge := encoded(record{typ: recPut, refs: 1, id: chunk.Sum([]byte("x")), payload: []byte("x")})
	binary.LittleEndian.PutUint32(huge[lenOff:], 1<<32-1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, in []byte) {
		_, _, _ = decodeHeader(in)
		end, err := scanRecords(bytes.NewReader(in), int64(len(in)), func(off int64, rec *record) {
			raw := bytes.Clone(in[off : off+wireSize(len(rec.payload))])
			clear(raw[epochOff:idOff])
			seal(raw)
			if !bytes.Equal(encoded(*rec), raw) {
				t.Fatalf("record at %d does not re-encode to its own bytes, epoch field aside", off)
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
		seal(rec)
		off += len(rec)
	}
	return out
}

// seal gives an encoded record — buf holds header and payload exactly —
// the checksum its other bytes call for.
func seal(buf []byte) {
	binary.LittleEndian.PutUint32(buf[crcOff:], crc32.ChecksumIEEE(buf[typeOff:]))
}

// relocatedLog returns a segment that compaction wrote relocated
// records into.
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
