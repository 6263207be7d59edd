package instrument

import (
	"testing"
	"time"
)

func ev(op Op) Event {
	return Event{Time: time.Unix(0, 0), Actor: ActorProvider, Node: "p1", Op: op}
}

func TestRecorderFilter(t *testing.T) {
	r := &Recorder{}
	r.Emit(ev(OpStore))
	r.Emit(ev(OpFetch))
	r.Emit(ev(OpStore))
	got := r.Filter(func(e Event) bool { return e.Op == OpStore })
	if len(got) != 2 {
		t.Fatalf("filtered=%d", len(got))
	}
}

func TestEventOK(t *testing.T) {
	e := ev(OpStore)
	if !e.OK() {
		t.Fatal("event without Err should be OK")
	}
	e.Err = "disk full"
	if e.OK() {
		t.Fatal("event with Err should not be OK")
	}
}

func TestNop(t *testing.T) {
	Nop{}.Emit(ev(OpStore)) // must not panic
}
