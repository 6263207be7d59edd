package pmanager

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func view(n int) []Info {
	out := make([]Info, n)
	for i := range out {
		out[i] = Info{ID: fmt.Sprintf("p%02d", i), Zone: fmt.Sprintf("z%d", i%3), Capacity: 1000}
	}
	return out
}

func distinct(ids []string) bool {
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

func TestRoundRobinCycles(t *testing.T) {
	rr := &RoundRobin{}
	v := view(3)
	got, err := rr.Allocate(6, 1, v)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p00", "p01", "p02", "p00", "p01", "p02"}
	for i, ids := range got {
		if ids[0] != want[i] {
			t.Fatalf("chunk %d → %v, want %s", i, ids, want[i])
		}
	}
}

func TestRoundRobinReplicasDistinct(t *testing.T) {
	rr := &RoundRobin{}
	got, err := rr.Allocate(10, 3, view(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range got {
		if len(ids) != 3 || !distinct(ids) {
			t.Fatalf("replicas not distinct: %v", ids)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, _ := NewRandom(7).Allocate(20, 2, view(8))
	b, _ := NewRandom(7).Allocate(20, 2, view(8))
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatal("same seed produced different placements")
			}
		}
	}
}

func TestRandomReplicasDistinct(t *testing.T) {
	got, err := NewRandom(1).Allocate(50, 3, view(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range got {
		if !distinct(ids) {
			t.Fatalf("duplicate replica target: %v", ids)
		}
	}
}

func TestLeastUsedPrefersFree(t *testing.T) {
	v := view(3)
	v[0].Used = 900
	v[1].Used = 100
	v[2].Used = 500
	got, err := LeastUsed{}.Allocate(1, 1, v)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != "p01" {
		t.Fatalf("want freest provider p01, got %v", got[0])
	}
}

func TestLeastUsedSpreadsAcrossCalls(t *testing.T) {
	// With equal free space, ties break by active count, so consecutive
	// placements within one call should not all hit the same provider.
	got, err := LeastUsed{}.Allocate(6, 1, view(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ids := range got {
		counts[ids[0]]++
	}
	for id, c := range counts {
		if c != 2 {
			t.Fatalf("imbalanced placement: %v (provider %s got %d)", counts, id, c)
		}
	}
}

func TestZoneAwareSpreadsZones(t *testing.T) {
	v := view(6) // zones z0,z1,z2 × 2
	got, err := ZoneAware{}.Allocate(4, 3, v)
	if err != nil {
		t.Fatal(err)
	}
	zoneOf := map[string]string{}
	for _, in := range v {
		zoneOf[in.ID] = in.Zone
	}
	for _, ids := range got {
		if !distinct(ids) {
			t.Fatalf("duplicate replica: %v", ids)
		}
		zones := map[string]bool{}
		for _, id := range ids {
			zones[zoneOf[id]] = true
		}
		if len(zones) != 3 {
			t.Fatalf("replicas not across 3 zones: %v (%v)", ids, zones)
		}
	}
}

func TestZoneAwareFallbackWhenFewZones(t *testing.T) {
	// 4 providers all in one zone, replicas=3: must still find 3 distinct.
	v := view(4)
	for i := range v {
		v[i].Zone = "only"
	}
	got, err := ZoneAware{}.Allocate(2, 3, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range got {
		if len(ids) != 3 || !distinct(ids) {
			t.Fatalf("bad fallback placement: %v", ids)
		}
	}
}

func TestStrategyErrors(t *testing.T) {
	for _, s := range []Strategy{&RoundRobin{}, NewRandom(1), LeastUsed{}, ZoneAware{}} {
		if _, err := s.Allocate(1, 1, nil); !errors.Is(err, ErrNoProviders) {
			t.Errorf("%s: want ErrNoProviders, got %v", s.Name(), err)
		}
		if _, err := s.Allocate(1, 5, view(3)); !errors.Is(err, ErrNotEnough) {
			t.Errorf("%s: want ErrNotEnough, got %v", s.Name(), err)
		}
		if _, err := s.Allocate(1, 0, view(3)); err == nil {
			t.Errorf("%s: want error for replicas=0", s.Name())
		}
	}
}

func newTestManager() *Manager {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return New(WithClock(func() time.Time { return now }))
}

func TestManagerRegister(t *testing.T) {
	m := newTestManager()
	if err := m.Register(Info{ID: "p1", Zone: "z"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(Info{ID: "p1"}); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("want ErrAlreadyExists, got %v", err)
	}
	if err := m.Register(Info{ID: "p2", Zone: "z"}); err != nil {
		t.Fatal(err)
	}
	alive, total := m.Size()
	if alive != 2 || total != 2 {
		t.Fatalf("alive=%d total=%d", alive, total)
	}
	got := m.Alive()
	if len(got) != 2 || got[0].ID != "p1" || got[1].ID != "p2" {
		t.Fatalf("alive=%+v", got)
	}
}

func TestManagerUnregisterUnknown(t *testing.T) {
	m := newTestManager()
	if err := m.Unregister("nope"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("want ErrUnknown, got %v", err)
	}
}

func TestManagerAllocate(t *testing.T) {
	m := newTestManager()
	for i := 0; i < 4; i++ {
		if err := m.Register(Info{ID: fmt.Sprintf("p%d", i), Zone: "z"}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Allocate(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("len=%d", len(got))
	}
	for _, ids := range got {
		if len(ids) != 2 || !distinct(ids) {
			t.Fatalf("bad placement %v", ids)
		}
	}
}

func TestInfoFree(t *testing.T) {
	if (Info{Capacity: 0}).Free() != 1<<50 {
		t.Fatal("unbounded Free")
	}
	if (Info{Capacity: 10, Used: 4}).Free() != 6 {
		t.Fatal("bounded Free")
	}
	if (Info{Capacity: 10, Used: 40}).Free() != 0 {
		t.Fatal("overfull Free should clamp to 0")
	}
}

// Property: every strategy returns the requested shape with distinct
// replica targets drawn from the view.
func TestStrategiesShapeProperty(t *testing.T) {
	strategies := []func() Strategy{
		func() Strategy { return &RoundRobin{} },
		func() Strategy { return NewRandom(42) },
		func() Strategy { return LeastUsed{} },
		func() Strategy { return ZoneAware{} },
	}
	f := func(nRaw, repRaw, provRaw uint8) bool {
		prov := int(provRaw)%12 + 1
		replicas := int(repRaw)%prov + 1
		n := int(nRaw)%20 + 1
		v := view(prov)
		valid := map[string]bool{}
		for _, in := range v {
			valid[in.ID] = true
		}
		for _, mk := range strategies {
			got, err := mk().Allocate(n, replicas, v)
			if err != nil || len(got) != n {
				return false
			}
			for _, ids := range got {
				if len(ids) != replicas || !distinct(ids) {
					return false
				}
				for _, id := range ids {
					if !valid[id] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
