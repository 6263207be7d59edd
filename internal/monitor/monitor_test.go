package monitor

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"blobseer/internal/instrument"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func ev(node string, op instrument.Op, bytes int64) instrument.Event {
	return instrument.Event{Time: t0, Node: node, Op: op, Bytes: bytes, Actor: instrument.ActorProvider}
}

func TestEventRecordMapping(t *testing.T) {
	e := ev("p1", instrument.OpStore, 128)
	e.Blob = 9
	r := EventRecord(e)
	if r.Param != "store" || r.Value != 128 || r.Node != "p1" || r.Blob != 9 {
		t.Fatalf("record=%+v", r)
	}
	phys := instrument.Event{Time: t0, Node: "p1", Op: instrument.OpCPULoad, Value: 0.7}
	r = EventRecord(phys)
	if r.Param != "cpu_load" || r.Value != 0.7 {
		t.Fatalf("record=%+v", r)
	}
	bad := ev("p1", instrument.OpStore, 10)
	bad.Err = "boom"
	r = EventRecord(bad)
	if r.Param != "store_err" {
		t.Fatalf("record=%+v", r)
	}
}

func TestServiceIngestAndFarm(t *testing.T) {
	s := NewService("svc1", 0)
	s.Ingest([]instrument.Event{
		ev("p1", instrument.OpStore, 100),
		ev("p1", instrument.OpStore, 200),
		ev("p2", instrument.OpFetch, 300),
	})
	if s.ParamCount() != 2 {
		t.Fatalf("params=%d (%v)", s.ParamCount(), s.Params())
	}
	ts := s.Series("p1", "store")
	if ts == nil || ts.Len() != 2 {
		t.Fatalf("series missing or wrong length")
	}
	evs, recs := s.Ingested()
	if evs != 3 || recs != 3 {
		t.Fatalf("ingested=%d,%d", evs, recs)
	}
}

func TestServiceSubscribers(t *testing.T) {
	s := NewService("svc1", 0)
	var mu sync.Mutex
	var got []Record
	s.Subscribe(SubscriberFunc(func(rs []Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	}))
	s.Subscribe(nil) // ignored
	s.Ingest([]instrument.Event{ev("p1", instrument.OpStore, 1)})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Service != "svc1" {
		t.Fatalf("got=%v", got)
	}
}

func TestServiceEmptyIngest(t *testing.T) {
	s := NewService("svc1", 0)
	s.Ingest(nil)
	if n, _ := s.Ingested(); n != 0 {
		t.Fatal("empty ingest counted")
	}
}

func TestAgentBatching(t *testing.T) {
	s := NewService("svc1", 0)
	a := NewAgent("node1", s, 4)
	for i := 0; i < 3; i++ {
		a.Emit(ev("", instrument.OpStore, 1))
	}
	if n, _ := s.Ingested(); n != 0 {
		t.Fatal("flushed before batch full")
	}
	a.Emit(ev("", instrument.OpStore, 1))
	if n, _ := s.Ingested(); n != 4 {
		t.Fatalf("after batch: %d", n)
	}
	sent, flushes, pending := a.Stats()
	if sent != 4 || flushes != 1 || pending != 0 {
		t.Fatalf("stats=%d,%d,%d", sent, flushes, pending)
	}
}

func TestAgentFillsNodeField(t *testing.T) {
	s := NewService("svc1", 0)
	a := NewAgent("node7", s, 1)
	a.Emit(instrument.Event{Time: t0, Op: instrument.OpStore, Bytes: 9})
	if s.Series("node7", "store") == nil {
		t.Fatal("agent did not stamp node identity")
	}
}

func TestAgentManualFlush(t *testing.T) {
	s := NewService("svc1", 0)
	a := NewAgent("n", s, 100)
	a.Emit(ev("", instrument.OpStore, 1))
	a.Flush()
	if n, _ := s.Ingested(); n != 1 {
		t.Fatalf("ingested=%d", n)
	}
	a.Flush() // empty flush is a no-op
	_, flushes, _ := a.Stats()
	if flushes != 1 {
		t.Fatalf("flushes=%d", flushes)
	}
}

func TestMeshRoundRobinAssignment(t *testing.T) {
	m := NewMesh(3, 0)
	if len(m.Services()) != 3 {
		t.Fatalf("services=%d", len(m.Services()))
	}
	for i := 0; i < 6; i++ {
		a := m.NewAgent(fmt.Sprintf("n%d", i), 1)
		a.Emit(ev("", instrument.OpStore, 1))
	}
	for i, s := range m.Services() {
		if n, _ := s.Ingested(); n != 2 {
			t.Fatalf("service %d got %d events", i, n)
		}
	}
}

func TestMeshSubscribeAndParamCount(t *testing.T) {
	m := NewMesh(2, 0)
	var mu sync.Mutex
	total := 0
	m.Subscribe(SubscriberFunc(func(rs []Record) {
		mu.Lock()
		total += len(rs)
		mu.Unlock()
	}))
	a0 := m.NewAgent("n0", 1)
	a1 := m.NewAgent("n1", 1)
	a0.Emit(ev("", instrument.OpStore, 1))
	a1.Emit(ev("", instrument.OpFetch, 1))
	mu.Lock()
	defer mu.Unlock()
	if total != 2 {
		t.Fatalf("subscriber records=%d", total)
	}
	if m.ParamCount() != 2 {
		t.Fatalf("mesh params=%d", m.ParamCount())
	}
}

func TestMeshFlushAll(t *testing.T) {
	m := NewMesh(2, 0)
	a := m.NewAgent("n0", 1000)
	a.Emit(ev("", instrument.OpStore, 1))
	m.FlushAll()
	var total int64
	for _, s := range m.Services() {
		n, _ := s.Ingested()
		total += n
	}
	if total != 1 {
		t.Fatalf("after FlushAll: %d", total)
	}
}

func TestMeshZeroServicesClamped(t *testing.T) {
	m := NewMesh(0, 0)
	if len(m.Services()) != 1 {
		t.Fatalf("services=%d", len(m.Services()))
	}
}

func TestServiceNames(t *testing.T) {
	m := NewMesh(120, 0)
	svcs := m.Services()
	if svcs[0].ID() != "svc00" || svcs[11].ID() != "svc11" || svcs[100].ID() != "svc100" {
		t.Fatalf("names: %s %s %s", svcs[0].ID(), svcs[11].ID(), svcs[100].ID())
	}
	seen := make(map[string]bool, len(svcs))
	for _, s := range svcs {
		id := s.ID()
		digits := strings.TrimPrefix(id, "svc")
		if digits == id || digits == "" || strings.Trim(digits, "0123456789") != "" {
			t.Fatalf("service name %q is not svc followed by digits", id)
		}
		if seen[id] {
			t.Fatalf("service name %q repeats", id)
		}
		seen[id] = true
	}
}

func TestConcurrentAgents(t *testing.T) {
	m := NewMesh(4, 0)
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
	var total int64
	for _, s := range m.Services() {
		n, _ := s.Ingested()
		total += n
	}
	if total != 800 {
		t.Fatalf("total=%d", total)
	}
}
