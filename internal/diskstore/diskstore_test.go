package diskstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/provider"
)

// open creates a store in a fresh temp dir with the background
// compactor off (tests drive CompactOnce explicitly) and small segments
// so rolls happen.
func open(t *testing.T, opts Options) (*DiskStore, string) {
	t.Helper()
	dir := t.TempDir()
	return reopen(t, dir, opts), dir
}

func reopen(t *testing.T, dir string, opts Options) *DiskStore {
	t.Helper()
	if opts.CompactEvery == 0 {
		opts.CompactEvery = -1
	}
	s, err := openAt(dir, opts, leapingClock())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// leapingClock is a clock on which an hour passes between any two
// readings: every sealed segment is old by the time a scan looks at it,
// so eligibility alone decides what CompactOnce rewrites and the tests
// that are about what compaction does, not when, see it happen at once.
// The timing rule has its own tests, on a clock they step (policy_test.go).
func leapingClock() func() time.Time {
	var ticks atomic.Int64
	start := time.Now()
	return func() time.Time { return start.Add(time.Duration(ticks.Add(1)) * time.Hour) }
}

func payload(i int, n int) []byte {
	b := make([]byte, n)
	r := rand.New(rand.NewSource(int64(i)))
	r.Read(b)
	return b
}

func mustPut(t *testing.T, s provider.Store, data []byte) chunk.ID {
	t.Helper()
	id := chunk.Sum(data)
	if err := s.Put(id, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	return id
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := open(t, Options{})
	data := payload(1, 4096)
	id := mustPut(t, s, data)
	got, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}
	if s.Used() != 4096 || s.Count() != 1 {
		t.Fatalf("Used=%d Count=%d, want 4096/1", s.Used(), s.Count())
	}
	if _, err := s.Get(chunk.Sum([]byte("absent"))); err != provider.ErrNotFound {
		t.Fatalf("absent Get err = %v, want ErrNotFound", err)
	}
}

func TestRefcountSemanticsMatchMemStore(t *testing.T) {
	// The disk store must mirror MemStore's contract exactly: re-put
	// bumps refs and refreshes the epoch tag, Delete decrements and
	// frees at zero, Delete of an absent chunk is ErrNotFound, Purge
	// frees wholesale and tolerates absence.
	s, _ := open(t, Options{})
	data := payload(2, 100)
	id := mustPut(t, s, data)
	s.AdvanceEpoch()
	mustPut(t, s, data) // refs=2, epoch tag refreshed to 1

	infos, _ := s.List(chunk.ID{}, 10)
	if len(infos) != 1 || infos[0].Refs != 2 || infos[0].Epoch != 1 {
		t.Fatalf("after re-put: %+v", infos)
	}
	if s.Used() != 100 {
		t.Fatalf("Used=%d, want 100 (each chunk once)", s.Used())
	}

	if err := s.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if !s.Has(id) || s.Used() != 100 {
		t.Fatal("refs=1 chunk should survive one Delete")
	}
	if err := s.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Has(id) || s.Used() != 0 || s.Count() != 0 {
		t.Fatal("refs=0 chunk should be freed")
	}
	if err := s.Delete(id); err != provider.ErrNotFound {
		t.Fatalf("Delete absent err = %v, want ErrNotFound", err)
	}

	id2 := mustPut(t, s, payload(3, 50))
	mustPut(t, s, payload(3, 50))
	freed, err := s.Purge(id2)
	if err != nil || freed != 50 {
		t.Fatalf("Purge = (%d, %v), want (50, nil)", freed, err)
	}
	if freed, err := s.Purge(id2); err != nil || freed != 0 {
		t.Fatalf("Purge absent = (%d, %v), want (0, nil)", freed, err)
	}
}

func TestCapacity(t *testing.T) {
	s, _ := open(t, Options{Capacity: 1000})
	mustPut(t, s, payload(4, 600))
	big := payload(5, 500)
	if err := s.Put(chunk.Sum(big), big); err != provider.ErrFull {
		t.Fatalf("over-capacity Put err = %v, want ErrFull", err)
	}
	// Freeing makes room again.
	if err := s.Delete(chunk.Sum(payload(4, 600))); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Put(chunk.Sum(big), big); err != nil {
		t.Fatalf("Put after free: %v", err)
	}
}

func TestListPaging(t *testing.T) {
	s, _ := open(t, Options{SegmentBytes: 8 << 10})
	want := make([]chunk.ID, 0, 100)
	for i := 0; i < 100; i++ {
		want = append(want, mustPut(t, s, payload(1000+i, 64)))
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i][:], want[j][:]) < 0 })

	var got []chunk.ID
	var after chunk.ID
	for {
		page, more := s.List(after, 7)
		for _, ci := range page {
			got = append(got, ci.ID)
		}
		if !more {
			break
		}
		after = page[len(page)-1].ID
	}
	if len(got) != len(want) {
		t.Fatalf("paged out %d ids, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("page order diverges at %d", i)
		}
	}
}

func TestRecoveryCleanRestart(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{SegmentBytes: 4 << 10})
	type row struct {
		id   chunk.ID
		data []byte
	}
	var rows []row
	for i := 0; i < 40; i++ {
		d := payload(2000+i, 200)
		rows = append(rows, row{mustPut(t, s, d), d})
	}
	mustPut(t, s, rows[0].data) // refs=2
	s.AdvanceEpoch()
	s.AdvanceEpoch()
	if err := s.Delete(rows[1].id); err != nil {
		t.Fatal(err)
	}
	wantUsed, wantCount, wantEpoch := s.Used(), s.Count(), s.Epoch()
	s.Close()

	s2 := reopen(t, dir, Options{SegmentBytes: 4 << 10})
	if s2.Used() != wantUsed || s2.Count() != wantCount || s2.Epoch() != wantEpoch {
		t.Fatalf("recovered Used=%d Count=%d Epoch=%d, want %d/%d/%d",
			s2.Used(), s2.Count(), s2.Epoch(), wantUsed, wantCount, wantEpoch)
	}
	for i, r := range rows {
		if i == 1 {
			if s2.Has(r.id) {
				t.Fatal("deleted chunk resurrected by replay")
			}
			continue
		}
		got, err := s2.Get(r.id)
		if err != nil || !bytes.Equal(got, r.data) {
			t.Fatalf("chunk %d lost or corrupt after restart: %v", i, err)
		}
	}
	infos, _ := s2.List(chunk.ID{}, 1)
	if len(infos) == 0 {
		t.Fatal("List empty after restart")
	}
	// The re-put chunk carries refs=2 across the restart.
	for _, ci := range listAll(s2) {
		if ci.ID == rows[0].id && ci.Refs != 2 {
			t.Fatalf("re-put chunk refs=%d after restart, want 2", ci.Refs)
		}
	}
}

func listAll(s provider.Store) []provider.ChunkInfo {
	var out []provider.ChunkInfo
	var after chunk.ID
	for {
		page, more := s.List(after, 64)
		out = append(out, page...)
		if !more {
			break
		}
		after = page[len(page)-1].ID
	}
	return out
}

// lastSegment returns the path of the youngest (active) segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segment files in %s: %v", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// TestKillPointMidRecord truncates the youngest segment mid-record —
// the torn-tail shape an append crash leaves — at every byte boundary
// inside the last record, asserting Open recovers every fully-written
// chunk with exact Used()/refcount state and drops only the torn one.
func TestKillPointMidRecord(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	var ids []chunk.ID
	var datas [][]byte
	for i := 0; i < 5; i++ {
		d := payload(3000+i, 333)
		ids = append(ids, mustPut(t, s, d))
		datas = append(datas, d)
	}
	s.Close()

	seg := lastSegment(t, dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recSize := int(wireSize(333))
	if len(full) != 5*recSize {
		t.Fatalf("segment is %d bytes, want %d", len(full), 5*recSize)
	}
	lastStart := 4 * recSize

	// Cut at a spread of points inside the last record: header-torn,
	// payload-torn, one byte short.
	for _, cut := range []int{1, headerSize - 1, headerSize, headerSize + 100, recSize - 1} {
		cutAt := lastStart + cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			sub := t.TempDir()
			for _, p := range []string{seg} {
				b := full[:cutAt]
				if err := os.WriteFile(filepath.Join(sub, filepath.Base(p)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r := reopen(t, sub, Options{})
			if r.Count() != 4 || r.Used() != 4*333 {
				t.Fatalf("recovered Count=%d Used=%d, want 4/%d", r.Count(), r.Used(), 4*333)
			}
			for i := 0; i < 4; i++ {
				got, err := r.Get(ids[i])
				if err != nil || !bytes.Equal(got, datas[i]) {
					t.Fatalf("chunk %d not recovered: %v", i, err)
				}
			}
			if r.Has(ids[4]) {
				t.Fatal("torn chunk should be gone")
			}
			// The torn tail is truncated, so new appends land cleanly.
			nid := mustPut(t, r, payload(9999, 10))
			if !r.Has(nid) {
				t.Fatal("post-recovery Put lost")
			}
		})
	}
}

// TestKillPointRecordBoundary truncates exactly at record boundaries:
// recovery must keep precisely the records before the cut.
func TestKillPointRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	var ids []chunk.ID
	for i := 0; i < 6; i++ {
		ids = append(ids, mustPut(t, s, payload(4000+i, 128)))
	}
	// A state record too: delete one chunk so the log tail mixes types.
	if err := s.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := lastSegment(t, dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	putSize := int(wireSize(128))
	for _, keep := range []int{1, 3, 6} {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			sub := t.TempDir()
			b := full[:keep*putSize]
			if err := os.WriteFile(filepath.Join(sub, filepath.Base(seg)), b, 0o644); err != nil {
				t.Fatal(err)
			}
			r := reopen(t, sub, Options{})
			if r.Count() != keep || r.Used() != int64(keep*128) {
				t.Fatalf("Count=%d Used=%d, want %d/%d", r.Count(), r.Used(), keep, keep*128)
			}
			for i := 0; i < keep; i++ {
				if !r.Has(ids[i]) {
					t.Fatalf("chunk %d missing", i)
				}
			}
			for i := keep; i < 6; i++ {
				if r.Has(ids[i]) {
					t.Fatalf("chunk %d should not have survived the cut", i)
				}
			}
		})
	}
	t.Run("full-log", func(t *testing.T) {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(seg)), full, 0o644); err != nil {
			t.Fatal(err)
		}
		r := reopen(t, sub, Options{})
		// All six puts plus the delete replayed.
		if r.Count() != 5 || r.Has(ids[0]) {
			t.Fatalf("Count=%d Has(deleted)=%v, want 5/false", r.Count(), r.Has(ids[0]))
		}
	})
}

// TestCorruptionInSealedSegmentFails: damage outside the recoverable
// tail must fail the open loudly, not silently drop data.
func TestCorruptionInSealedSegmentFails(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{SegmentBytes: 2 << 10})
	for i := 0; i < 30; i++ {
		mustPut(t, s, payload(5000+i, 256))
	}
	s.Close()

	names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	sort.Strings(names)
	if len(names) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(names))
	}
	// Flip a payload byte in the first (sealed) segment.
	b, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+10] ^= 0xFF
	if err := os.WriteFile(names[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{CompactEvery: -1}); err == nil {
		t.Fatal("Open succeeded over mid-log corruption")
	}
}

func TestCompactionReclaimsGarbage(t *testing.T) {
	s, _ := open(t, Options{SegmentBytes: 4 << 10})
	var ids []chunk.ID
	for i := 0; i < 64; i++ {
		ids = append(ids, mustPut(t, s, payload(6000+i, 256)))
	}
	// Kill three quarters of them: most sealed segments drop below the
	// live-fraction threshold.
	for i, id := range ids {
		if i%4 != 0 {
			if _, err := s.Purge(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := s.DiskUsage()
	dropped, reclaimed, err := s.CompactOnce()
	if err != nil {
		t.Fatalf("CompactOnce: %v", err)
	}
	if dropped == 0 || reclaimed == 0 {
		t.Fatalf("compaction found nothing (dropped=%d reclaimed=%d)", dropped, reclaimed)
	}
	if after := s.DiskUsage(); after >= before {
		t.Fatalf("DiskUsage %d → %d: no shrink", before, after)
	}
	// Survivors still read back.
	for i, id := range ids {
		if i%4 != 0 {
			continue
		}
		got, err := s.Get(id)
		if err != nil || !bytes.Equal(got, payload(6000+i, 256)) {
			t.Fatalf("survivor %d lost after compaction: %v", i, err)
		}
	}
}

// TestCompactionSurvivesRestart: compaction rewrites + segment drops
// must replay to the identical logical state.
func TestCompactionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{SegmentBytes: 4 << 10})
	var ids []chunk.ID
	for i := 0; i < 64; i++ {
		ids = append(ids, mustPut(t, s, payload(7000+i, 256)))
	}
	mustPut(t, s, payload(7000, 256)) // survivor with refs=2
	for i, id := range ids {
		if i%4 != 0 {
			if _, err := s.Purge(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := s.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	wantUsed, wantCount := s.Used(), s.Count()
	want := listAll(s)
	s.Close()

	r := reopen(t, dir, Options{SegmentBytes: 4 << 10})
	if r.Used() != wantUsed || r.Count() != wantCount {
		t.Fatalf("replayed Used=%d Count=%d, want %d/%d", r.Used(), r.Count(), wantUsed, wantCount)
	}
	got := listAll(r)
	if len(got) != len(want) {
		t.Fatalf("replayed %d chunks, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("chunk state diverges after replay: %+v vs %+v", got[i], want[i])
		}
	}
	for i, id := range ids {
		if i%4 != 0 {
			continue
		}
		if _, err := r.Get(id); err != nil {
			t.Fatalf("survivor %d unreadable after compaction+restart: %v", i, err)
		}
	}
}

// TestTombstoneOutlivesPayloadRecord: purge a chunk, compact only the
// tombstone-holding segment away would resurrect it on replay if the
// deadKey bookkeeping were wrong. Exercised by purging chunks whose
// payload segments stay above the live threshold, compacting, and
// restarting.
func TestTombstoneOutlivesPayloadRecord(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{SegmentBytes: 8 << 10, CompactLiveFraction: 0.9})
	// Segment 1: mostly-live payloads (stays above 0.9? no — make it
	// exactly: 24 chunks, purge 2 → live 22/24 > 0.9 keeps it).
	var keep, dead []chunk.ID
	for i := 0; i < 24; i++ {
		id := mustPut(t, s, payload(8000+i, 300))
		if i < 2 {
			dead = append(dead, id)
		} else {
			keep = append(keep, id)
		}
	}
	// Roll into a fresh segment, then fill it with state records only
	// (the purges) plus filler puts that then get purged too, making the
	// tombstone segment a compaction victim while the payload segment
	// is not.
	for _, id := range dead {
		if _, err := s.Purge(id); err != nil {
			t.Fatal(err)
		}
	}
	var filler []chunk.ID
	for i := 0; i < 40; i++ {
		filler = append(filler, mustPut(t, s, payload(8500+i, 300)))
	}
	for _, id := range filler {
		if _, err := s.Purge(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	wantCount := s.Count()
	if s.Has(dead[0]) || s.Has(dead[1]) {
		t.Fatal("purged chunks still present before restart")
	}
	s.Close()

	r := reopen(t, dir, Options{SegmentBytes: 8 << 10, CompactLiveFraction: 0.9})
	if r.Has(dead[0]) || r.Has(dead[1]) {
		t.Fatal("purged chunk resurrected: tombstone dropped while payload record lived")
	}
	if r.Count() != wantCount {
		t.Fatalf("Count=%d after restart, want %d", r.Count(), wantCount)
	}
	for _, id := range keep {
		if !r.Has(id) {
			t.Fatal("live chunk lost")
		}
	}
}

// TestChurnMatchesMemStoreReference drives identical randomized
// operation streams into a DiskStore and the MemStore reference model
// under concurrency, then asserts List paging agrees exactly.
func TestChurnMatchesMemStoreReference(t *testing.T) {
	s, _ := open(t, Options{SegmentBytes: 16 << 10})
	ref := provider.NewMemStore(0)

	const workers = 8
	const opsPer = 300
	// Each worker owns a disjoint key space so the same logical op
	// stream applies cleanly to both stores without cross-worker
	// ordering mattering.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			var mine []chunk.ID
			datum := func(i int) []byte { return payload(w*100000+i, 64+r.Intn(192)) }
			for i := 0; i < opsPer; i++ {
				switch op := r.Intn(10); {
				case op < 5: // put
					d := datum(i)
					id := chunk.Sum(d)
					if err := s.Put(id, d); err != nil {
						t.Errorf("disk Put: %v", err)
						return
					}
					if err := ref.Put(id, d); err != nil {
						t.Errorf("ref Put: %v", err)
						return
					}
					mine = append(mine, id)
				case op < 8: // delete
					if len(mine) == 0 {
						continue
					}
					id := mine[r.Intn(len(mine))]
					de, re := s.Delete(id), ref.Delete(id)
					if (de == nil) != (re == nil) {
						t.Errorf("Delete divergence: disk=%v ref=%v", de, re)
						return
					}
				default: // purge
					if len(mine) == 0 {
						continue
					}
					id := mine[r.Intn(len(mine))]
					df, de := s.Purge(id)
					rf, re := ref.Purge(id)
					if de != nil || re != nil || df != rf {
						t.Errorf("Purge divergence: disk=(%d,%v) ref=(%d,%v)", df, de, rf, re)
						return
					}
				}
				if i%50 == 0 {
					if _, _, err := s.CompactOnce(); err != nil {
						t.Errorf("CompactOnce: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if s.Used() != ref.Used() || s.Count() != ref.Count() {
		t.Fatalf("totals diverge: disk Used=%d Count=%d, ref Used=%d Count=%d",
			s.Used(), s.Count(), ref.Used(), ref.Count())
	}
	// Page both stores with an awkward page size and compare exactly.
	var after chunk.ID
	for {
		dp, dm := s.List(after, 13)
		rp, rm := ref.List(after, 13)
		if len(dp) != len(rp) || dm != rm {
			t.Fatalf("page shape diverges: disk %d/%v ref %d/%v", len(dp), dm, len(rp), rm)
		}
		for i := range dp {
			if dp[i].ID != rp[i].ID || dp[i].Size != rp[i].Size || dp[i].Refs != rp[i].Refs {
				t.Fatalf("page entry diverges: %+v vs %+v", dp[i], rp[i])
			}
		}
		if !dm {
			break
		}
		after = dp[len(dp)-1].ID
	}
}

func TestBackgroundCompactor(t *testing.T) {
	dir := t.TempDir()
	s, err := openAt(dir, Options{SegmentBytes: 4 << 10, CompactEvery: 10 * time.Millisecond}, leapingClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ids []chunk.ID
	for i := 0; i < 64; i++ {
		ids = append(ids, mustPut(t, s, payload(9000+i, 256)))
	}
	for _, id := range ids[:48] {
		if _, err := s.Purge(id); err != nil {
			t.Fatal(err)
		}
	}
	deadline := 200
	for ; deadline > 0; deadline-- {
		if s.Segments() < 8 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if deadline == 0 {
		t.Fatalf("background compactor never shrank the store (%d segments)", s.Segments())
	}
	for _, id := range ids[48:] {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("survivor unreadable: %v", err)
		}
	}
}

func TestCloseIdempotentAndFailsOps(t *testing.T) {
	s, _ := open(t, Options{})
	id := mustPut(t, s, payload(1, 10))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(id, payload(1, 10)); err != ErrClosed {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Get(id); err != ErrClosed {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
}

// BenchmarkOpenRecovery times Open replaying every segment of a cleanly
// closed store — what a provider pays before it can serve after a
// restart — over 20 000 4 KiB chunks, normalised per GB of segment data.
func BenchmarkOpenRecovery(b *testing.B) {
	const chunks, chunkSize = 20000, 4 << 10
	dir := b.TempDir()
	opts := Options{CompactEvery: -1}
	s, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, chunkSize)
	for i := 0; i < chunks; i++ {
		binary.LittleEndian.PutUint64(buf, uint64(i))
		if err := s.Put(chunk.Sum(buf), buf); err != nil {
			b.Fatal(err)
		}
	}
	diskGB := float64(s.DiskUsage()) / (1 << 30)
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if s.Count() != chunks {
			b.Fatalf("recovery found %d chunks, stored %d", s.Count(), chunks)
		}
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/diskGB, "s/GB")
}
