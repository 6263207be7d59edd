package provider

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
)

// bg is the no-deadline context provider calls run under in these tests.
var bg = context.Background()

func TestMemStorePutGet(t *testing.T) {
	s := NewMemStore(0)
	id := chunk.Sum([]byte("abc"))
	if err := s.Put(id, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(id)
	if err != nil || string(got) != "abc" {
		t.Fatalf("got=%q err=%v", got, err)
	}
	if s.Used() != 3 || s.Count() != 1 {
		t.Fatalf("used=%d count=%d", s.Used(), s.Count())
	}
}

func TestMemStoreGetCopies(t *testing.T) {
	s := NewMemStore(0)
	id := chunk.Sum([]byte("abc"))
	if err := s.Put(id, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(id)
	got[0] = 'X'
	again, _ := s.Get(id)
	if string(again) != "abc" {
		t.Fatal("Get returned aliased storage")
	}
}

func TestMemStoreRefcount(t *testing.T) {
	s := NewMemStore(0)
	id := chunk.Sum([]byte("abc"))
	if err := s.Put(id, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(id, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 3 {
		t.Fatalf("dedup failed, used=%d", s.Used())
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if !s.Has(id) {
		t.Fatal("chunk freed while references remain")
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if s.Has(id) || s.Used() != 0 {
		t.Fatal("chunk not freed at refcount zero")
	}
}

func TestMemStoreCapacity(t *testing.T) {
	s := NewMemStore(5)
	a := chunk.Sum([]byte("aaa"))
	b := chunk.Sum([]byte("bbbb"))
	if err := s.Put(a, []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, []byte("bbbb")); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	// duplicate put of existing chunk must still succeed at capacity
	if err := s.Put(a, []byte("aaa")); err != nil {
		t.Fatalf("idempotent put failed: %v", err)
	}
}

func TestMemStoreDeleteMissing(t *testing.T) {
	s := NewMemStore(0)
	if err := s.Delete(chunk.Sum([]byte("x"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err := s.Get(chunk.Sum([]byte("x"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestProviderStoreFetch(t *testing.T) {
	rec := &instrument.Recorder{}
	p := New("p1", "rennes", 0, WithEmitter(rec))
	id := chunk.Sum([]byte("hello"))
	if err := p.Store(bg, "alice", id, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := p.Fetch(bg, "bob", id)
	if err != nil || string(got) != "hello" {
		t.Fatalf("got=%q err=%v", got, err)
	}
	st := p.Stats()
	if st.Stores != 1 || st.Fetches != 1 || st.BytesIn != 5 || st.BytesOut != 5 {
		t.Fatalf("stats=%+v", st)
	}
	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("events=%d", len(evs))
	}
	if evs[0].Op != instrument.OpStore || evs[0].User != "alice" {
		t.Fatalf("ev0=%+v", evs[0])
	}
	if evs[1].Op != instrument.OpFetch || evs[1].User != "bob" {
		t.Fatalf("ev1=%+v", evs[1])
	}
}

func TestProviderStopRestart(t *testing.T) {
	p := New("p1", "z", 0)
	p.Stop()
	if !p.Stopped() {
		t.Fatal("not stopped")
	}
	id := chunk.Sum([]byte("x"))
	if err := p.Store(bg, "u", id, []byte("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if _, err := p.Fetch(bg, "u", id); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if err := p.Remove(bg, id); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	p.Restart()
	if err := p.Store(bg, "u", id, []byte("x")); err != nil {
		t.Fatalf("after restart: %v", err)
	}
}

func TestProviderFree(t *testing.T) {
	p := New("p1", "z", 10)
	if p.Free() != 10 {
		t.Fatalf("free=%d", p.Free())
	}
	id := chunk.Sum([]byte("1234"))
	if err := p.Store(bg, "u", id, []byte("1234")); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 6 {
		t.Fatalf("free=%d", p.Free())
	}
	unbounded := New("p2", "z", 0)
	if unbounded.Free() != -1 {
		t.Fatalf("unbounded free=%d", unbounded.Free())
	}
}

func TestProviderListChunksSorted(t *testing.T) {
	p := New("p1", "z", 0)
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("chunk-%d", i))
		if err := p.Store(bg, "u", chunk.Sum(data), data); err != nil {
			t.Fatal(err)
		}
	}
	ks, more, err := p.ListChunks(bg, chunk.ID{}, 0)
	if err != nil || more || len(ks) != 20 {
		t.Fatalf("ListChunks = %d chunks more=%v err=%v", len(ks), more, err)
	}
	for i := 1; i < len(ks); i++ {
		if bytes.Compare(ks[i-1].ID[:], ks[i].ID[:]) >= 0 {
			t.Fatal("inventory not sorted")
		}
	}
}

func TestProviderReportPhysical(t *testing.T) {
	rec := &instrument.Recorder{}
	p := New("p1", "z", 0, WithEmitter(rec))
	p.ReportPhysical(0.5, 0.25)
	ops := map[instrument.Op]bool{}
	for _, e := range rec.Events() {
		ops[e.Op] = true
	}
	for _, want := range []instrument.Op{
		instrument.OpCPULoad, instrument.OpMemUsage,
		instrument.OpDiskSpace, instrument.OpActiveConn,
	} {
		if !ops[want] {
			t.Errorf("missing physical sample %s", want)
		}
	}
}

func TestProviderConcurrent(t *testing.T) {
	p := New("p1", "z", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data := []byte(fmt.Sprintf("g%d-i%d", g, i))
				id := chunk.Sum(data)
				if err := p.Store(bg, "u", id, data); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				got, err := p.Fetch(bg, "u", id)
				if err != nil || string(got) != string(data) {
					t.Errorf("fetch: %q %v", got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if p.Stats().Chunks != 400 {
		t.Fatalf("chunks=%d", p.Stats().Chunks)
	}
}

// TestMemStoreStripedConcurrency hammers the lock-striped store from
// many goroutines with puts, gets and deletes over a shared key set —
// run with -race. The final accounting must match a serial replay.
func TestMemStoreStripedConcurrency(t *testing.T) {
	s := NewMemStore(0)
	const workers = 8
	const perWorker = 200
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("chunk-%03d-payload", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := (w*perWorker + i) % len(payloads)
				data := payloads[k]
				id := chunk.Sum(data)
				if err := s.Put(id, data); err != nil {
					t.Error(err)
					return
				}
				if got, err := s.Get(id); err != nil || !bytes.Equal(got, data) {
					t.Errorf("get: %v", err)
					return
				}
				// Even-indexed payloads are deleted right back, so their
				// refcounts drain to zero; odd ones accumulate.
				if k%2 == 0 {
					if err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Puts and deletes balanced for even payloads, so exactly the odd
	// half survives, counted once each.
	var wantCount int
	var wantUsed int64
	for k, p := range payloads {
		if k%2 == 1 {
			wantCount++
			wantUsed += int64(len(p))
		}
	}
	if s.Count() != wantCount {
		t.Fatalf("count=%d want %d", s.Count(), wantCount)
	}
	if s.Used() != wantUsed {
		t.Fatalf("used=%d want %d", s.Used(), wantUsed)
	}
	if page, more := s.List(chunk.ID{}, len(payloads)); more || len(page) != wantCount {
		t.Fatalf("listed %d (more=%v) want %d", len(page), more, wantCount)
	}
}

// Property: Used equals the sum of distinct chunk sizes regardless of the
// put/delete interleaving.
func TestMemStoreUsedInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewMemStore(0)
		live := map[chunk.ID]int{} // refcounts we maintain independently
		sizes := map[chunk.ID]int64{}
		pool := make([][]byte, 8)
		for i := range pool {
			pool[i] = []byte(fmt.Sprintf("payload-%d-%s", i, string(make([]byte, i))))
		}
		for _, op := range ops {
			data := pool[int(op)%len(pool)]
			id := chunk.Sum(data)
			if op%2 == 0 {
				if err := s.Put(id, data); err != nil {
					return false
				}
				live[id]++
				sizes[id] = int64(len(data))
			} else if live[id] > 0 {
				if err := s.Delete(id); err != nil {
					return false
				}
				live[id]--
			}
		}
		var want int64
		for id, n := range live {
			if n > 0 {
				want += sizes[id]
			}
		}
		return s.Used() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMemStoreLifecycle covers the sweep surface: epoch tagging on Put
// and re-Put, paginated listing in ID order, and wholesale purge that
// ignores refcounts.
func TestMemStoreLifecycle(t *testing.T) {
	s := NewMemStore(0)
	var ids []chunk.ID
	for i := 0; i < 5; i++ {
		data := []byte{byte(i), byte(i)}
		id := chunk.Sum(data)
		ids = append(ids, id)
		if err := s.Put(id, data); err != nil {
			t.Fatal(err)
		}
	}
	if e := s.Epoch(); e != 0 {
		t.Fatalf("initial epoch = %d", e)
	}

	// Pages in ascending ID order, resumable, no dup/no skip.
	var got []chunk.ID
	var after chunk.ID
	pages := 0
	for {
		page, more := s.List(after, 2)
		pages++
		for i := 1; i < len(page); i++ {
			if bytes.Compare(page[i-1].ID[:], page[i].ID[:]) >= 0 {
				t.Fatal("page not in ascending ID order")
			}
		}
		for _, ci := range page {
			got = append(got, ci.ID)
			if ci.Epoch != 0 || ci.Refs != 1 || ci.Size != 2 {
				t.Fatalf("chunk info = %+v", ci)
			}
		}
		if len(page) > 0 {
			after = page[len(page)-1].ID
		}
		if !more {
			break
		}
	}
	if len(got) != 5 || pages != 3 {
		t.Fatalf("listed %d chunks over %d pages, want 5 over 3", len(got), pages)
	}

	// Advancing the epoch tags later puts; a re-put refreshes the tag.
	if e := s.AdvanceEpoch(); e != 1 {
		t.Fatalf("epoch after advance = %d", e)
	}
	if err := s.Put(ids[0], []byte{0, 0}); err != nil { // re-put: ref 2, epoch 1
		t.Fatal(err)
	}
	page, _ := s.List(chunk.ID{}, 100)
	for _, ci := range page {
		switch ci.ID {
		case ids[0]:
			if ci.Refs != 2 || ci.Epoch != 1 {
				t.Fatalf("re-put chunk info = %+v, want refs 2 epoch 1", ci)
			}
		default:
			if ci.Epoch != 0 {
				t.Fatalf("untouched chunk got epoch %d", ci.Epoch)
			}
		}
	}

	// Purge frees wholesale even with refs > 1; absent purge is a no-op.
	n, err := s.Purge(ids[0])
	if err != nil || n != 2 {
		t.Fatalf("purge freed %d, %v", n, err)
	}
	if s.Has(ids[0]) {
		t.Fatal("purged chunk still present")
	}
	n, err = s.Purge(ids[0])
	if err != nil || n != 0 {
		t.Fatalf("double purge freed %d, %v", n, err)
	}
	if s.Count() != 4 || s.Used() != 8 {
		t.Fatalf("count=%d used=%d after purge", s.Count(), s.Used())
	}
}

// TestProviderLifecycleSurface covers the provider's wrappers over the
// store's sweep surface.
func TestProviderLifecycleSurface(t *testing.T) {
	p := New("p1", "z", 0)
	ctx := context.Background()
	ids := make([]chunk.ID, 3)
	for i := range ids {
		data := []byte{byte(i), 1, 2}
		ids[i] = chunk.Sum(data)
		if err := p.Store(ctx, "u", ids[i], data); err != nil {
			t.Fatal(err)
		}
	}
	page, more, err := p.ListChunks(ctx, chunk.ID{}, 10)
	if err != nil || more || len(page) != 3 {
		t.Fatalf("ListChunks = %d chunks more=%v err=%v", len(page), more, err)
	}
	if e, err := p.Epoch(ctx); err != nil || e != 0 {
		t.Fatalf("epoch = %d, %v", e, err)
	}
	if e, err := p.AdvanceEpoch(ctx); err != nil || e != 1 {
		t.Fatalf("advance = %d, %v", e, err)
	}
	purged, freed, err := p.PurgeChunks(ctx, ids[:2])
	if err != nil || purged != 2 || freed != 6 {
		t.Fatalf("purge = %d chunks %d bytes, %v", purged, freed, err)
	}
	if p.Stats().Chunks != 1 {
		t.Fatalf("chunks after purge = %d", p.Stats().Chunks)
	}
	if p.Stats().Deletes != 2 {
		t.Fatalf("deletes counter = %d, want 2", p.Stats().Deletes)
	}
}

// TestStoppedProviderRefusesEpochs: AdvanceEpoch and Epoch go through
// the same stopped gate as every other call. A sweep reaching a stopped
// provider (over rpc, where no pool filter hides it) used to advance
// its epoch anyway, ageing chunks it could not answer for out of their
// grace window.
func TestStoppedProviderRefusesEpochs(t *testing.T) {
	p := New("p1", "z", 0)
	ctx := context.Background()
	if e, err := p.AdvanceEpoch(ctx); err != nil || e != 1 {
		t.Fatalf("advance = %d, %v", e, err)
	}
	p.Stop()
	if _, err := p.AdvanceEpoch(ctx); !errors.Is(err, ErrStopped) {
		t.Fatalf("AdvanceEpoch on a stopped provider: %v, want ErrStopped", err)
	}
	if _, err := p.Epoch(ctx); !errors.Is(err, ErrStopped) {
		t.Fatalf("Epoch on a stopped provider: %v, want ErrStopped", err)
	}
	p.Restart()
	if e, err := p.Epoch(ctx); err != nil || e != 1 {
		t.Fatalf("epoch after restart = %d, %v; want 1 (unchanged while stopped)", e, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.AdvanceEpoch(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("AdvanceEpoch on a cancelled ctx: %v", err)
	}
}

// TestMemStoreIndexChurn cross-checks the sorted shadow index against a
// reference model through a long randomized Put/Delete/Purge churn:
// after every phase, paging the whole inventory must yield exactly the
// model's key set in ascending order, whatever the page size.
func TestMemStoreIndexChurn(t *testing.T) {
	s := NewMemStore(0)
	model := map[chunk.ID][]byte{}
	rnd := func(i int) []byte { return []byte(fmt.Sprintf("churn-%d", i)) }

	listAll := func(limit int) []chunk.ID {
		var got []chunk.ID
		var after chunk.ID
		for {
			page, more := s.List(after, limit)
			for i, ci := range page {
				if i > 0 && bytes.Compare(page[i-1].ID[:], ci.ID[:]) >= 0 {
					t.Fatal("page not strictly ascending")
				}
				got = append(got, ci.ID)
			}
			if len(page) > 0 {
				after = page[len(page)-1].ID
			}
			if !more {
				break
			}
			if len(page) == 0 {
				t.Fatal("more=true with an empty page")
			}
		}
		return got
	}
	check := func() {
		t.Helper()
		for _, limit := range []int{1, 7, 64, 100000} {
			got := listAll(limit)
			if len(got) != len(model) {
				t.Fatalf("limit %d: listed %d keys, model has %d", limit, len(got), len(model))
			}
			for _, id := range got {
				if _, ok := model[id]; !ok {
					t.Fatalf("limit %d: listed key %s not in model", limit, id.Short())
				}
			}
		}
		if s.Count() != len(model) {
			t.Fatalf("Count=%d, model %d", s.Count(), len(model))
		}
	}

	// Grow well past several block splits.
	for i := 0; i < 3000; i++ {
		data := rnd(i)
		id := chunk.Sum(data)
		if err := s.Put(id, data); err != nil {
			t.Fatal(err)
		}
		model[id] = data
	}
	check()

	// Delete every third key (refcount path), purge every seventh.
	i := 0
	for id := range model {
		switch i % 7 {
		case 0:
			if _, err := s.Purge(id); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
		case 1, 4:
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
		}
		i++
	}
	check()

	// Refill over the holes, with some re-puts bumping refcounts only.
	for i := 0; i < 3000; i += 2 {
		data := rnd(i)
		id := chunk.Sum(data)
		if err := s.Put(id, data); err != nil {
			t.Fatal(err)
		}
		model[id] = data
	}
	check()

	// Drain everything: the index must end empty, not just small.
	for id := range model {
		if _, err := s.Purge(id); err != nil {
			t.Fatal(err)
		}
		delete(model, id)
	}
	check()
	if got := listAll(16); len(got) != 0 {
		t.Fatalf("drained store still lists %d keys", len(got))
	}
}
