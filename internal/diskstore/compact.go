// The background compactor. A sealed segment whose live fraction u —
// live payload bytes plus the wire size of its authoritative state
// records, over its file size — is under Options.CompactLiveFraction is
// eligible; it becomes a victim once the log-structured file system
// cleaner's cost–benefit score, (1−u)·age/(1+u) with age the seconds
// since it was sealed, reaches compactMinScore. Age stands in for what
// the rest of the segment will do: chunks written together tend to die
// together, so a segment that lost half its bytes within a second of
// being sealed is about to lose most of the rest, and rewriting the
// live half now would write bytes twice that were going to cost
// nothing; one that took an hour to get there holds data worth moving.
// The score grows with the clock whether or not the store is written
// to, so at the default ceiling every eligible segment is reclaimed at
// most 3·compactMinScore seconds after it became eligible (u < 0.5
// makes (1−u)/(1+u) > 1/3), and what deferral can add to the disk is
// that many seconds of writes.
//
// A victim is rewritten: everything authoritative still in it is
// re-recorded at the log head (live payloads as recPut with current
// absolute refs/epoch, payload-elsewhere state as recState, tombstones
// whose payload record still exists elsewhere as fresh tombstones),
// after which the file holds only superseded history and is dropped.
// Readers never block: a Get in flight holds a reader pin, so the file
// is unlinked but stays readable until the last pin drops.
//
// Absolute-state records make this safe without any delta reasoning: a
// replay that sees both the victim and its rewrites folds them in log
// order and the newer absolute records win; a replay after the drop
// sees only the rewrites. The one resurrection hazard — dropping a
// tombstone while the payload record it kills still exists in an older
// segment — is tracked explicitly (deadKeys) and the tombstone is
// re-recorded before its segment is dropped.
package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"blobseer/internal/chunk"
)

// compactMinScore is the cost–benefit score, in seconds, at which an
// eligible segment is rewritten. Not an option: what it trades is
// stated above in wall-clock terms that hold for any workload, and the
// space bound stays with Options.CompactLiveFraction.
const compactMinScore = 1.0

// kickCompactor nudges the background compactor without blocking.
func (s *DiskStore) kickCompactor() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// compactor is the background loop: a periodic scan, plus kicks from
// delete/purge paths that freed payload bytes.
func (s *DiskStore) compactor() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
		case <-s.kick:
		}
		// Best effort: a failing disk surfaces on the write paths too,
		// and the next scan retries.
		_, _, _ = s.CompactOnce()
	}
}

// liveScore is the bytes a segment still holds that matter: live
// payloads plus the wire size of its authoritative metadata records.
func (seg *segment) liveScore() int64 {
	return seg.livePayload + seg.stateRecs*int64(headerSize)
}

// victim reports whether a sealed segment should be rewritten now. A
// segment with nothing live has nothing to wait for.
func (seg *segment) victim(now time.Time, ceiling float64) bool {
	u := float64(seg.liveScore()) / float64(seg.size)
	if u >= ceiling {
		return false
	}
	return u == 0 || (1-u)*now.Sub(seg.sealed).Seconds()/(1+u) >= compactMinScore
}

// worklist is one victim and what it holds that is still authoritative.
type worklist struct {
	seg      *segment
	payloads []chunk.ID // live payloads to relocate
	states   []chunk.ID // latest state record here, payload elsewhere
	tombs    []chunk.ID // tombstones for payload records elsewhere
	forgets  []chunk.ID // dead payload records whose tombstones lapse with v
}

// CompactOnce scans for victim segments and rewrites them, returning
// how many segments were dropped and the garbage bytes reclaimed. It is
// safe to call concurrently with all store operations (the background
// compactor uses it); tests and benchmarks call it directly.
func (s *DiskStore) CompactOnce() (dropped int, reclaimed int64, err error) {
	if s.m == nil {
		return s.compactOnce()
	}
	t0 := time.Now()
	dropped, reclaimed, err = s.compactOnce()
	s.m.since(s.m.compactDur, t0)
	s.m.segments.Set(float64(s.Segments()))
	return dropped, reclaimed, err
}

func (s *DiskStore) compactOnce() (dropped int, reclaimed int64, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, 0, ErrClosed
	}
	now := s.now()
	var work map[uint32]*worklist // by victim id; nil on the common scan that finds none
	for _, seg := range s.segs {
		if seg != s.active && !seg.dead.Load() && seg.size > 0 && seg.victim(now, s.opts.CompactLiveFraction) {
			if work == nil {
				work = make(map[uint32]*worklist)
			}
			work[seg.id] = &worklist{seg: seg}
		}
	}
	// One pass over the index per scan, whatever the number of victims:
	// Puts wait behind this lock. Entries can change once it is
	// released — every step re-verifies under the lock before acting.
	if work != nil {
		for id, e := range s.idx {
			if wl := work[e.seg]; wl != nil {
				wl.payloads = append(wl.payloads, id)
			} else if wl := work[e.stateSeg]; wl != nil {
				wl.states = append(wl.states, id)
			}
		}
		for id, dk := range s.deadKeys {
			if wl := work[dk.putSeg]; wl != nil {
				wl.forgets = append(wl.forgets, id)
			} else if wl := work[dk.tombSeg]; wl != nil {
				wl.tombs = append(wl.tombs, id)
			}
		}
	}
	rewrites := false // some victim holds something to move
	for _, wl := range work {
		rewrites = rewrites || len(wl.payloads)+len(wl.states)+len(wl.tombs) > 0
	}
	// The rewrites get a log head of their own. They are fsynced below,
	// and an fsync takes every dirty byte of the file with it: on the
	// head the writers have been appending to, that is everything put
	// since the last scan — bytes that are mostly dead within seconds
	// and that no one asked to have on the platter.
	if rewrites && s.active.size > 0 {
		if _, err := s.addSegment(); err != nil { //lockio:allow a roll is one file create and swaps s.active, which this mutex guards; writeLocked rolls under it too
			s.mu.Unlock()
			return 0, 0, err
		}
	}
	// Every rewrite below lands in the segment that is the log head now,
	// or in one the head rolls into while the scan runs.
	head := s.active.id
	s.mu.Unlock()
	var clean []*segment // victims holding nothing authoritative any more
	for _, wl := range work {
		ok, rerr := s.rewriteSegment(wl)
		if rerr != nil {
			err = rerr // the victims already rewritten are still dropped
			break
		}
		if ok {
			clean = append(clean, wl.seg)
		}
	}
	if len(clean) == 0 {
		return 0, 0, err
	}
	// The rewrites must be durable before the only other copies vanish:
	// one sync per segment they landed in, not one per victim, and none
	// for a scan whose victims held nothing to move.
	s.mu.Lock()
	var wrote []*segment
	for id := head; rewrites && id <= s.active.id; id++ {
		if seg, ok := s.segs[id]; ok {
			wrote = append(wrote, seg)
		}
	}
	s.mu.Unlock()
	for _, seg := range wrote {
		if serr := s.syncSegment(seg); serr != nil {
			return 0, 0, fmt.Errorf("diskstore: compact sync: %w", serr)
		}
	}
	for _, v := range clean {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return dropped, reclaimed, ErrClosed
		}
		reclaimed += v.size
		v.dead.Store(true)
		delete(s.segs, v.id)
		s.mu.Unlock()
		dropped++
		if v.readers.Load() == 0 {
			s.reap(v)
		}
	}
	return dropped, reclaimed, err
}

// syncSegment flushes a segment the compactor appended to. One that was
// sealed since — the head rolled mid-scan — has no append handle left,
// and any descriptor of the file will do; one compacted away since had
// its records moved and synced again by whoever dropped it.
func (s *DiskStore) syncSegment(seg *segment) error {
	s.mu.Lock()
	w := seg.w
	s.mu.Unlock()
	if w != nil {
		if err := w.Sync(); !errors.Is(err, os.ErrClosed) {
			return err
		}
	}
	f, err := os.OpenFile(seg.path, os.O_WRONLY, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	err = f.Sync()
	f.Close()
	return err
}

// rewriteSegment rewrites everything authoritative out of v and reports
// whether v may now be dropped. Work proceeds chunk by chunk under short
// mutex slices, with the payload read running outside the lock against
// v's pinned read handle.
func (s *DiskStore) rewriteSegment(wl *worklist) (bool, error) {
	v := wl.seg
	for _, id := range wl.payloads {
		if err := s.relocatePayload(v, id); err != nil {
			return false, err
		}
	}
	for _, id := range wl.states {
		if err := s.restate(v, id); err != nil {
			return false, err
		}
	}
	for _, id := range wl.tombs {
		if err := s.rewriteTombstone(v, id); err != nil {
			return false, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range wl.forgets {
		// v holds these chunks' (dead) payload records: once v is gone
		// there is nothing left to resurrect, so the tombstone becomes
		// unnecessary and its key is forgotten.
		if dk, ok := s.deadKeys[id]; ok && dk.putSeg == v.id {
			s.segRef(dk.tombSeg).stateRecs--
			delete(s.deadKeys, id)
		}
	}
	// Anything still live raced in (it cannot: v is sealed and every path
	// appends to the active segment — but stay safe and retry on a later
	// scan rather than drop authoritative records).
	return v.livePayload == 0 && v.stateRecs == 0, nil
}

// relocatePayload moves one live payload out of v. The old record is
// read whole, outside the lock (a put record's id, length and payload
// never change), into a pool buffer that is then the new record as it
// stands: only if the chunk's refs or epoch have moved since is the
// header patched and the checksum redone before the one write.
func (s *DiskStore) relocatePayload(v *segment, id chunk.ID) error {
	s.mu.Lock()
	e, ok := s.idx[id]
	if !ok || e.seg != v.id {
		s.mu.Unlock()
		return nil // deleted or already moved
	}
	v.readers.Add(1)
	s.mu.Unlock()

	n := headerSize + int(e.size)
	buf := chunk.GetBuf(n)[:n]
	defer chunk.PutBuf(buf)
	_, rerr := v.r.ReadAt(buf, e.off-headerSize)
	s.release(v)
	if rerr != nil {
		return fmt.Errorf("diskstore: compact read: %w", rerr)
	}
	// Checked here, because the rewrite is about to become the only
	// copy: moving a damaged record under a fresh checksum would hide
	// the damage from the next replay.
	if !verify(buf) {
		return fmt.Errorf("diskstore: compact read of chunk %s in %s: %w", id.Short(), v.path, ErrCorrupt)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, ok = s.idx[id]
	if !ok || e.seg != v.id {
		return nil // raced away while we read: nothing to move
	}
	if int32(binary.LittleEndian.Uint32(buf[refsOff:])) != e.refs || binary.LittleEndian.Uint64(buf[epochOff:]) != e.epoch {
		restamp(buf, e.refs, e.epoch)
	}
	seg, poff, err := s.writeLocked(buf, nil) //lockio:allow append-only log: appends must serialize with index updates in log order; payload reads run outside this mutex
	if err != nil {
		return err
	}
	rec := record{typ: recPut, refs: e.refs, epoch: e.epoch, id: id, payload: buf[headerSize:]}
	s.apply(seg, poff, &rec)
	if s.m != nil {
		s.m.relocated.Add(e.size)
	}
	return nil
}

// restate re-records a chunk whose payload lives elsewhere but whose
// latest authoritative state record sits in v.
func (s *DiskStore) restate(v *segment, id chunk.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, ok := s.idx[id]
	if !ok || e.stateSeg != v.id || e.seg == v.id {
		return nil
	}
	rec := record{typ: recState, refs: e.refs, epoch: e.epoch, id: id}
	seg, off, err := s.appendLocked(&rec) //lockio:allow append-only log: appends must serialize with index updates in log order; payload reads run outside this mutex
	if err != nil {
		return err
	}
	s.apply(seg, off, &rec)
	return nil
}

// rewriteTombstone re-records a dead chunk's tombstone when the payload
// record it kills still exists in another live segment.
func (s *DiskStore) rewriteTombstone(v *segment, id chunk.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	dk, ok := s.deadKeys[id]
	if !ok || dk.tombSeg != v.id {
		return nil // resurrected by a fresh Put, or already moved
	}
	if _, alive := s.segs[dk.putSeg]; !alive || dk.putSeg == v.id {
		// Nothing left to resurrect: drop the key instead.
		s.segRef(dk.tombSeg).stateRecs--
		delete(s.deadKeys, id)
		return nil
	}
	rec := record{typ: recState, refs: 0, epoch: 0, id: id}
	seg, off, err := s.appendLocked(&rec) //lockio:allow append-only log: appends must serialize with index updates in log order; payload reads run outside this mutex
	if err != nil {
		return err
	}
	s.apply(seg, off, &rec)
	return nil
}
