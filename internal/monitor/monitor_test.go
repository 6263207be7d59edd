package monitor

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"blobseer/internal/instrument"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func ev(node string, op instrument.Op, bytes int64) instrument.Event {
	return instrument.Event{Time: t0, Node: node, Op: op, Bytes: bytes, Actor: instrument.ActorProvider}
}

// countBatches subscribes a counter of delivered batches to m.
func countBatches(m *Mesh) *int {
	n := new(int)
	m.Subscribe(SubscriberFunc(func([]instrument.Event) { *n++ }))
	return n
}

// collect subscribes a recorder of every delivered event to m.
func collect(m *Mesh) func() []instrument.Event {
	var mu sync.Mutex
	var got []instrument.Event
	m.Subscribe(SubscriberFunc(func(evs []instrument.Event) {
		mu.Lock()
		got = append(got, evs...)
		mu.Unlock()
	}))
	return func() []instrument.Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]instrument.Event(nil), got...)
	}
}

func TestAgentBatching(t *testing.T) {
	m := NewMesh()
	got, batches := collect(m), countBatches(m)
	a := m.NewAgent("node1", 4)
	for i := 0; i < 3; i++ {
		a.Emit(ev("", instrument.OpStore, 1))
	}
	if n := len(got()); n != 0 {
		t.Fatal("flushed before batch full")
	}
	a.Emit(ev("", instrument.OpStore, 1))
	if n := len(got()); n != 4 || *batches != 1 {
		t.Fatalf("after batch: %d events in %d batches, want 4 in 1", n, *batches)
	}
	a.Flush() // nothing left pending
	if *batches != 1 {
		t.Fatalf("%d batches after an empty flush, want 1", *batches)
	}
}

// TestEventsDeliveredUnchanged pins that subscribers see each event as
// emitted: failure, bytes and sample value included.
func TestEventsDeliveredUnchanged(t *testing.T) {
	m := NewMesh()
	got := collect(m)
	a := m.NewAgent("p1", 3)
	store := ev("p1", instrument.OpStore, 128)
	store.Blob = 9
	bad := ev("p1", instrument.OpStore, 10)
	bad.Err = "boom"
	phys := instrument.Event{Time: t0, Node: "p1", Op: instrument.OpCPULoad, Value: 0.7}
	want := []instrument.Event{store, bad, phys}
	for _, e := range want {
		a.Emit(e)
	}
	evs := got()
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
}

func TestAgentFillsNodeField(t *testing.T) {
	m := NewMesh()
	got := collect(m)
	a := m.NewAgent("node7", 1)
	a.Emit(instrument.Event{Time: t0, Op: instrument.OpStore, Bytes: 9})
	a.Emit(ev("other", instrument.OpStore, 9))
	if evs := got(); len(evs) != 2 || evs[0].Node != "node7" || evs[1].Node != "other" {
		t.Fatalf("agent did not stamp (only) a missing node identity: %+v", evs)
	}
}

func TestAgentManualFlush(t *testing.T) {
	m := NewMesh()
	got, batches := collect(m), countBatches(m)
	a := m.NewAgent("n", 100)
	a.Emit(ev("", instrument.OpStore, 1))
	a.Flush()
	if n := len(got()); n != 1 {
		t.Fatalf("delivered=%d", n)
	}
	a.Flush() // empty flush is a no-op
	if *batches != 1 {
		t.Fatalf("batches=%d", *batches)
	}
}

func TestMeshFansOutToEverySubscriber(t *testing.T) {
	m := NewMesh()
	first := collect(m)
	a0 := m.NewAgent("n0", 1)
	a1 := m.NewAgent("n1", 1)
	a0.Emit(ev("", instrument.OpStore, 1))
	// A subscriber added later sees what is flushed from then on.
	second := collect(m)
	a1.Emit(ev("", instrument.OpFetch, 1))
	if n := len(first()); n != 2 {
		t.Fatalf("first subscriber got %d events", n)
	}
	if evs := second(); len(evs) != 1 || evs[0].Node != "n1" {
		t.Fatalf("second subscriber got %+v", evs)
	}
	if m.Agents() != 2 {
		t.Fatalf("agents=%d", m.Agents())
	}
}

func TestMeshFlushAll(t *testing.T) {
	m := NewMesh()
	got := collect(m)
	a := m.NewAgent("n0", 1000)
	a.Emit(ev("", instrument.OpStore, 1))
	m.FlushAll()
	if n := len(got()); n != 1 {
		t.Fatalf("after FlushAll: %d", n)
	}
}

func TestConcurrentAgents(t *testing.T) {
	m := NewMesh()
	got := collect(m)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		a := m.NewAgent(fmt.Sprintf("n%d", i), 8)
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				a.Emit(ev("", instrument.OpStore, int64(j)))
			}
			a.Flush()
		}(a)
	}
	wg.Wait()
	if n := len(got()); n != 800 {
		t.Fatalf("total=%d", n)
	}
}
