package introspect

import (
	"testing"
	"time"

	"blobseer/internal/instrument"
	"blobseer/internal/monitor"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }

func sample(node string, op instrument.Op, v float64, ti time.Time) instrument.Event {
	return instrument.Event{Time: ti, Actor: instrument.ActorProvider, Node: node, Op: op, Value: v}
}

func TestBurstCacheAcceptsUpToCap(t *testing.T) {
	c := NewBurstCache(5)
	evs := make([]instrument.Event, 3)
	if n := c.Add(evs); n != 3 {
		t.Fatalf("accepted=%d", n)
	}
	if n := c.Add(evs); n != 2 {
		t.Fatalf("accepted=%d, want 2 (overflow)", n)
	}
	if c.Dropped() != 1 || c.Len() != 5 {
		t.Fatalf("dropped=%d len=%d", c.Dropped(), c.Len())
	}
	if n := c.Add(evs); n != 0 {
		t.Fatalf("accepted=%d after full", n)
	}
	if c.Dropped() != 4 {
		t.Fatalf("dropped=%d", c.Dropped())
	}
}

func TestBurstCacheDrain(t *testing.T) {
	c := NewBurstCache(10)
	c.Add(make([]instrument.Event, 4))
	got := c.Drain()
	if len(got) != 4 || c.Len() != 0 {
		t.Fatalf("drain=%d len=%d", len(got), c.Len())
	}
	// After drain there is room again.
	if n := c.Add(make([]instrument.Event, 10)); n != 10 {
		t.Fatalf("post-drain accepted=%d", n)
	}
}

func TestStorageServerFlushPersists(t *testing.T) {
	s := NewStorageServer("ss0", 100, 100)
	s.Consume([]instrument.Event{
		sample("p1", instrument.OpDiskSpace, 42, at(0)),
		{Time: at(1), Node: "p1", Op: instrument.OpStore, Bytes: 4096},
	})
	if s.ParamCount() != 0 {
		t.Fatal("persisted before flush")
	}
	if n := s.Flush(); n != 2 {
		t.Fatalf("flushed=%d", n)
	}
	if ts := s.Series("p1", instrument.OpDiskSpace); ts == nil || ts.Len() != 1 || ts.Points()[0].Value != 42 {
		t.Fatal("sample series missing or wrong")
	}
	// An event with no sample value stores its byte count.
	if ts := s.Series("p1", instrument.OpStore); ts == nil || ts.Len() != 1 || ts.Points()[0].Value != 4096 {
		t.Fatal("byte-count series missing or wrong")
	}
}

func TestIntrospectorProviderState(t *testing.T) {
	in := NewIntrospector(0)
	in.Consume([]instrument.Event{
		sample("p1", instrument.OpDiskSpace, 1000, at(0)),
		sample("p1", instrument.OpCPULoad, 0.5, at(0)),
		sample("p1", instrument.OpActiveConn, 4, at(0)),
		sample("p2", instrument.OpDiskSpace, 500, at(0)),
	})
	st, ok := in.Provider("p1")
	if !ok || st.Space != 1000 || st.CPULoad != 0.5 || st.ActiveAvg != 4 {
		t.Fatalf("state=%+v ok=%v", st, ok)
	}
	if _, ok := in.Provider("nope"); ok {
		t.Fatal("unknown provider reported")
	}
	if got := in.SystemStorage(); got != 1500 {
		t.Fatalf("system storage=%v", got)
	}
	if got := in.MeanLoad(); got != 2 {
		t.Fatalf("mean load=%v", got)
	}
	all := in.Providers()
	if len(all) != 2 || all[0].Node != "p1" {
		t.Fatalf("providers=%v", all)
	}
}

func TestIntrospectorEmptyAggregates(t *testing.T) {
	in := NewIntrospector(0)
	if in.MeanLoad() != 0 || in.SystemStorage() != 0 {
		t.Fatal("empty aggregates nonzero")
	}
}

// access feeds one client event through Consume, the way the mesh does.
func access(in *Introspector, op instrument.Op, blob uint64, user string, bytes int64, ti time.Time, err string) {
	in.Consume([]instrument.Event{{
		Time: ti, Actor: instrument.ActorClient, Op: op, Blob: blob, User: user, Bytes: bytes, Err: err,
	}})
}

func TestIntrospectorBlobAccess(t *testing.T) {
	in := NewIntrospector(0)
	access(in, instrument.OpWrite, 1, "alice", 100, at(0), "")
	access(in, instrument.OpRead, 1, "bob", 50, at(1), "")
	access(in, instrument.OpRead, 2, "bob", 10, at(2), "")
	access(in, instrument.OpWrite, 1, "eve", 10, at(3), "blocked") // failures are not access
	access(in, instrument.OpCreate, 3, "bob", 0, at(4), "")        // nor is creation

	st, ok := in.Blob(1)
	if !ok || st.Reads != 1 || st.Writes != 1 || st.BytesRead != 50 || st.BytesWritten != 100 {
		t.Fatalf("blob1=%+v", st)
	}
	if st.Users["alice"] != 1 || st.Users["bob"] != 1 || st.Users["eve"] != 0 {
		t.Fatalf("users=%v", st.Users)
	}
	if st.LastAccess != at(1) {
		t.Fatalf("last=%v", st.LastAccess)
	}
	if _, ok := in.Blob(3); ok {
		t.Fatal("a create counted as access")
	}
}

func TestHotAndColdBlobs(t *testing.T) {
	in := NewIntrospector(0)
	for i := 0; i < 5; i++ {
		access(in, instrument.OpRead, 1, "u", 1, at(i), "")
	}
	access(in, instrument.OpRead, 2, "u", 1, at(10), "")
	hot := in.HotBlobs(1)
	if len(hot) != 1 || hot[0].Blob != 1 || hot[0].Reads != 5 || hot[0].Users["u"] != 5 {
		t.Fatalf("hot=%v", hot)
	}
	hot[0].Users["u"] = 0 // a copy: the introspector's stats stay put
	if st, _ := in.Blob(1); st.Users["u"] != 5 {
		t.Fatalf("HotBlobs shares its Users map: %v", st.Users)
	}
	cold := in.ColdBlobs(at(8))
	if len(cold) != 1 || cold[0].Blob != 1 {
		t.Fatalf("cold=%v", cold)
	}
	if got := in.HotBlobs(0); len(got) != 2 {
		t.Fatalf("unbounded hot=%d", len(got))
	}
}

func TestEndToEndPipeline(t *testing.T) {
	// instrumentation → agent → introspector
	mesh := monitor.NewMesh()
	in := NewIntrospector(0)
	mesh.Subscribe(in)

	agent := mesh.NewAgent("p1", 1)
	agent.Emit(instrument.Event{
		Time: at(0), Actor: instrument.ActorProvider, Node: "p1",
		Op: instrument.OpDiskSpace, Value: 12345,
	})
	st, ok := in.Provider("p1")
	if !ok || st.Space != 12345 {
		t.Fatalf("introspector did not see the sample: %+v %v", st, ok)
	}
}
