package diskstore

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/metrics"
)

// stepClock is a clock the test moves by hand.
type stepClock struct{ ns atomic.Int64 }

func (c *stepClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *stepClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func TestVictimRule(t *testing.T) {
	sealed := time.Unix(1000, 0)
	seg := func(live, size int64) *segment {
		return &segment{size: size, livePayload: live, sealed: sealed}
	}
	for _, tc := range []struct {
		name string
		seg  *segment
		age  time.Duration
		want bool
	}{
		{"above the ceiling however old", seg(60, 100), 24 * time.Hour, false},
		{"half dead a moment after the seal", seg(45, 100), 100 * time.Millisecond, false},
		{"half dead and cold", seg(45, 100), time.Hour, true},
		{"nearly dead but young", seg(10, 100), 500 * time.Millisecond, false},
		{"nearly dead, a little older", seg(10, 100), 1300 * time.Millisecond, true},
		{"nothing live has nothing to wait for", seg(0, 100), 0, true},
		// (1−u)/(1+u) > 1/3 under the default ceiling: 3·compactMinScore
		// seconds bound the wait of anything eligible.
		{"just under the ceiling after the bound", seg(49, 100), 3 * compactMinScore * 1e9, true},
	} {
		if got := tc.seg.victim(sealed.Add(tc.age), 0.5); got != tc.want {
			t.Errorf("%s: victim = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCompactionDefersTheDying is the machine-independent statement of
// what the cost–benefit rule buys. Cohorts of segments are written once
// a (fake) second and lose a random ~65 % of what they still hold every
// second after, the shape an overwrite-heavy object store gives its
// log; beside them sits a cold cohort that lost two chunks in three once
// and was then left alone. Rewriting each hot segment the moment it crosses the
// eligibility ceiling would relocate a third of every byte put; waiting
// for the score relocates a few percent, still reclaims every cold
// segment, and once the writes stop leaves nothing eligible behind.
func TestCompactionDefersTheDying(t *testing.T) {
	const (
		segBytes  = 16 << 10
		chunkSize = 1 << 10
		perSeg    = segBytes/(chunkSize+headerSize) + 1 // the record that crosses segBytes rolls
		coldSegs  = 3
		hotSegs   = 8 // per round
		rounds    = 24
	)
	clk := &stepClock{}
	s, err := openAt(t.TempDir(), Options{SegmentBytes: segBytes, CompactEvery: -1, Metrics: metrics.NewRegistry()}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(16))
	seq := 0
	put := func(n int) []chunk.ID {
		ids := make([]chunk.ID, n)
		for i := range ids {
			seq++
			ids[i] = mustPut(t, s, payload(seq, chunkSize))
		}
		return ids
	}
	// purge kills each id with probability p and returns the survivors.
	purge := func(ids []chunk.ID, p float64) []chunk.ID {
		kept := ids[:0]
		for _, id := range ids {
			if rng.Float64() >= p {
				kept = append(kept, id)
			} else if _, err := s.Purge(id); err != nil {
				t.Fatal(err)
			}
		}
		return kept
	}
	scan := func() {
		t.Helper()
		if _, _, err := s.CompactOnce(); err != nil {
			t.Fatal(err)
		}
	}
	// eligible lists the sealed segments under the ceiling.
	eligible := func() (ids []uint32) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for id, seg := range s.segs {
			if seg != s.active && float64(seg.liveScore())/float64(seg.size) < s.opts.CompactLiveFraction {
				ids = append(ids, id)
			}
		}
		return ids
	}

	var cold []chunk.ID
	for i, id := range put(coldSegs * perSeg) {
		if i%3 == 0 {
			cold = append(cold, id)
		} else if _, err := s.Purge(id); err != nil {
			t.Fatal(err)
		}
	}
	coldSegIDs := eligible()
	if len(coldSegIDs) != coldSegs {
		t.Fatalf("cold cohort left %d eligible segments, want %d", len(coldSegIDs), coldSegs)
	}
	scan()
	if got := s.m.relocated.Value(); got != 0 {
		t.Fatalf("a scan at the moment of the deletes relocated %d bytes; the rule should wait", got)
	}

	var cohorts [][]chunk.ID
	for r := 0; r < rounds; r++ {
		clk.advance(time.Second)
		cohorts = append(cohorts, put(hotSegs*perSeg))
		for i := range cohorts {
			cohorts[i] = purge(cohorts[i], 0.65)
		}
		scan()
	}
	put1, moved := s.m.putBytes.Value(), s.m.relocated.Value()
	if ratio := float64(moved) / float64(put1); ratio > 0.25 {
		t.Errorf("relocated %d of %d put bytes (%.2f), want ≤ 0.25", moved, put1, ratio)
	} else {
		t.Logf("relocated/put = %.3f over %d rounds", ratio, rounds)
	}
	s.mu.Lock()
	for _, id := range coldSegIDs {
		if _, still := s.segs[id]; still {
			t.Errorf("cold segment %d, under the ceiling since before the first round, was never reclaimed", id)
		}
	}
	s.mu.Unlock()

	// Writes stop. The score keeps growing with the clock, so a bounded
	// number of scans must leave nothing eligible.
	for i := 0; i < 5 && len(eligible()) > 0; i++ {
		clk.advance(time.Second)
		scan()
	}
	if left := eligible(); len(left) > 0 {
		t.Errorf("store did not converge: segments %v still eligible after writes stopped", left)
	}
	for _, id := range cold {
		got, err := s.Get(id)
		if err != nil || chunk.Sum(got) != id {
			t.Fatalf("cold survivor %s lost to compaction: %v", id.Short(), err)
		}
	}
	for _, c := range cohorts {
		for _, id := range c {
			if got, err := s.Get(id); err != nil || chunk.Sum(got) != id {
				t.Fatalf("hot survivor %s lost to compaction: %v", id.Short(), err)
			}
		}
	}
}

// syncCounter counts the fsyncs an append handle is asked for.
type syncCounter struct {
	appendFile
	syncs int
}

func (f *syncCounter) Sync() error {
	f.syncs++
	return f.appendFile.Sync()
}

// threeVictims leaves three sealed segments, each with one live chunk out of
// four, and the tombstones of the other nine in the log head. It returns the
// twelve chunk IDs; every fourth is a survivor.
func threeVictims(t *testing.T, s *DiskStore, chunkSize int) []chunk.ID {
	t.Helper()
	var ids []chunk.ID
	for i := 0; i < 12; i++ { // four records cross SegmentBytes: three sealed segments
		ids = append(ids, mustPut(t, s, payload(7000+i, chunkSize)))
	}
	if got := s.Segments(); got != 4 || s.active.size != 0 {
		t.Fatalf("set-up wrote %d segments with %d bytes in the head, want 3 sealed and an empty head", got, s.active.size)
	}
	for i, id := range ids {
		if i%4 != 0 {
			if _, err := s.Purge(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ids
}

// TestCompactionSyncsOncePerScan: the rewrites of every victim of a scan
// land in the log head, so one fsync of it makes them all durable before
// the victims are dropped — not one per victim.
func TestCompactionSyncsOncePerScan(t *testing.T) {
	const chunkSize = 1 << 10
	s, _ := open(t, Options{SegmentBytes: 4 << 10})
	ids := threeVictims(t, s, chunkSize)
	// Roll by hand, so that the scan finds an empty head, keeps it, and the
	// counter sits on the segment that takes all three survivors.
	s.mu.Lock()
	_, err := s.addSegment()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	head := &syncCounter{appendFile: s.active.w}
	s.active.w = head
	dropped, _, err := s.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 {
		t.Fatalf("scan dropped %d segments, want 3", dropped)
	}
	if head.syncs != 1 {
		t.Fatalf("a three-victim scan synced the log head %d times, want once", head.syncs)
	}
	for i := 0; i < 12; i += 4 {
		if got, err := s.Get(ids[i]); err != nil || !bytes.Equal(got, payload(7000+i, chunkSize)) {
			t.Fatalf("survivor %d lost after compaction: %v", i, err)
		}
	}
}

// TestCompactionLeavesTheWritersHeadUnsynced: an fsync flushes a whole
// file, so a scan with something to move seals the head the writers were
// appending to and moves it into a fresh one — what the writers put stays
// in the page cache, as it does when no scan runs. A scan whose victims
// hold nothing to move writes nothing and syncs nothing.
func TestCompactionLeavesTheWritersHeadUnsynced(t *testing.T) {
	const chunkSize = 1 << 10
	s, dir := open(t, Options{SegmentBytes: 4 << 10})
	ids := threeVictims(t, s, chunkSize)
	hot := s.active
	if hot.size == 0 {
		t.Fatal("the purges left no tombstones in the head")
	}
	head := &syncCounter{appendFile: hot.w}
	hot.w = head
	if dropped, _, err := s.CompactOnce(); err != nil || dropped != 3 {
		t.Fatalf("scan dropped %d segments (%v), want 3", dropped, err)
	}
	if head.syncs != 0 {
		t.Fatalf("the scan synced the writers' head %d times", head.syncs)
	}
	if s.active == hot || hot.w != nil {
		t.Fatal("the scan did not seal the writers' head")
	}
	for i := 0; i < 12; i += 4 {
		if e := s.idx[ids[i]]; e.seg <= hot.id {
			t.Fatalf("survivor %d was moved into segment %d, not past the writers' head %d", i, e.seg, hot.id)
		}
	}

	// The survivors die too: their segment holds nothing live, the scan
	// has nothing to move, and the head it finds is neither rolled nor
	// synced.
	for i := 0; i < 12; i += 4 {
		if _, err := s.Purge(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	_, err := s.addSegment()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, payload(7101, chunkSize))
	hot = s.active
	head = &syncCounter{appendFile: hot.w}
	hot.w = head
	dropped, _, err := s.CompactOnce()
	if err != nil || dropped == 0 {
		t.Fatalf("scan over dead segments dropped %d (%v)", dropped, err)
	}
	if head.syncs != 0 || s.active != hot {
		t.Fatalf("a scan with nothing to move synced the head %d times, rolled it: %v", head.syncs, s.active != hot)
	}
	// What a crash would leave: everything still readable after a reopen.
	s.Close()
	s = reopen(t, dir, Options{SegmentBytes: 4 << 10})
	if got, err := s.Get(chunk.Sum(payload(7101, chunkSize))); err != nil || !bytes.Equal(got, payload(7101, chunkSize)) {
		t.Fatalf("the head's chunk was lost across reopen: %v", err)
	}
	for _, id := range ids {
		if s.Has(id) {
			t.Fatalf("purged chunk %s came back across reopen", id.Short())
		}
	}
}
