package history

import (
	"fmt"
	"testing"
	"time"

	"blobseer/internal/instrument"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }

func TestAppendAndScan(t *testing.T) {
	h := New()
	for i := 0; i < 10; i++ {
		h.Append(Event{Time: at(i), User: "u1", Op: "write", Bytes: 100, OK: true})
	}
	got := h.Scan("u1", at(9), 5*time.Second)
	if len(got) != 6 { // t=4..9 inclusive
		t.Fatalf("scan=%d", len(got))
	}
	if h.Total() != 10 {
		t.Fatalf("total=%d", h.Total())
	}
}

func TestAppendIgnoresAnonymous(t *testing.T) {
	h := New()
	h.Append(Event{Time: t0, Op: "write"})
	if h.Total() != 0 {
		t.Fatal("anonymous event recorded")
	}
}

func TestCountRateBytes(t *testing.T) {
	h := New()
	for i := 0; i < 10; i++ {
		h.Append(Event{Time: at(i), User: "u1", Op: "write", Bytes: 50, OK: true})
		h.Append(Event{Time: at(i), User: "u1", Op: "read", Bytes: 10, OK: true})
	}
	now := at(9)
	if n := h.Count("u1", "write", now, 10*time.Second); n != 10 {
		t.Fatalf("count=%d", n)
	}
	if n := h.Count("u1", "", now, 10*time.Second); n != 20 {
		t.Fatalf("count all=%d", n)
	}
	if r := h.Rate("u1", "write", now, 10*time.Second); r != 1 {
		t.Fatalf("rate=%v", r)
	}
	if b := h.Bytes("u1", "write", now, 10*time.Second); b != 500 {
		t.Fatalf("bytes=%d", b)
	}
	if b := h.Bytes("u1", "", now, 10*time.Second); b != 600 {
		t.Fatalf("bytes all=%d", b)
	}
	if r := h.Rate("u1", "write", now, 0); r != 0 {
		t.Fatalf("zero-window rate=%v", r)
	}
}

func TestWindowExcludesFuture(t *testing.T) {
	h := New()
	h.Append(Event{Time: at(0), User: "u", Op: "write", OK: true})
	h.Append(Event{Time: at(100), User: "u", Op: "write", OK: true})
	if n := h.Count("u", "write", at(10), 20*time.Second); n != 1 {
		t.Fatalf("count=%d (future event leaked)", n)
	}
}

func TestFailures(t *testing.T) {
	h := New()
	h.Append(Event{Time: at(0), User: "u", Op: "read", OK: true})
	h.Append(Event{Time: at(1), User: "u", Op: "read", OK: false})
	h.Append(Event{Time: at(2), User: "u", Op: "write", OK: false})
	now := at(3)
	if n := h.Failures("u", "read", now, 10*time.Second); n != 1 {
		t.Fatalf("read failures=%d", n)
	}
	if n := h.Failures("u", "", now, 10*time.Second); n != 2 {
		t.Fatalf("all failures=%d", n)
	}
}

func TestDistinctBlobs(t *testing.T) {
	h := New()
	for i := 0; i < 10; i++ {
		h.Append(Event{Time: at(i), User: "u", Op: "read", Blob: uint64(i%4 + 1), OK: true})
	}
	// An event that names no BLOB (a provider fetch, an auth failure)
	// is not one more BLOB touched.
	h.Append(Event{Time: at(9), User: "u", Op: "fetch", OK: true})
	if n := h.DistinctBlobs("u", at(9), 20*time.Second); n != 4 {
		t.Fatalf("distinct=%d", n)
	}
}

func TestUsersAndActiveUsers(t *testing.T) {
	h := New()
	h.Append(Event{Time: at(0), User: "bob", Op: "read", OK: true})
	h.Append(Event{Time: at(100), User: "alice", Op: "read", OK: true})
	us := h.Users()
	if len(us) != 2 || us[0] != "alice" || us[1] != "bob" {
		t.Fatalf("users=%v", us)
	}
	act := h.ActiveUsers(at(105), 10*time.Second)
	if len(act) != 1 || act[0] != "alice" {
		t.Fatalf("active=%v", act)
	}
}

func TestMaxAgePruning(t *testing.T) {
	h := New(WithMaxAge(10 * time.Second))
	for i := 0; i < 100; i++ {
		h.Append(Event{Time: at(i), User: "u", Op: "write", OK: true})
	}
	got := h.Scan("u", at(99), time.Hour)
	if len(got) != 11 { // t=89..99
		t.Fatalf("retained=%d", len(got))
	}
}

func TestMaxPerUser(t *testing.T) {
	h := New(WithMaxPerUser(5))
	for i := 0; i < 20; i++ {
		h.Append(Event{Time: at(i), User: "u", Op: "write", OK: true})
	}
	got := h.Scan("u", at(19), time.Hour)
	if len(got) != 5 {
		t.Fatalf("retained=%d", len(got))
	}
	if got[0].Time != at(15) {
		t.Fatalf("oldest retained=%v", got[0].Time)
	}
}

func TestConsumeMonitorRecords(t *testing.T) {
	h := New()
	h.Consume([]instrument.Event{
		{Time: at(0), User: "u", Op: instrument.OpWrite, Bytes: 100},
		{Time: at(1), User: "u", Op: instrument.OpWrite, Bytes: 5, Err: "blocked"},
		{Time: at(2), User: "u", Op: instrument.OpCPULoad, Value: 1}, // not user-data: dropped
		{Time: at(3), User: "", Op: instrument.OpWrite, Bytes: 9},    // anonymous: dropped
		{Time: at(4), User: "u", Op: instrument.OpAuthFail},
	})
	if h.Total() != 3 {
		t.Fatalf("total=%d", h.Total())
	}
	if n := h.Failures("u", "write", at(5), time.Minute); n != 1 {
		t.Fatalf("failures=%d", n)
	}
	if n := h.Count("u", "auth_fail", at(5), time.Minute); n != 1 {
		t.Fatalf("auth_fail=%d", n)
	}
	if b := h.Bytes("u", "write", at(5), time.Minute); b != 105 {
		t.Fatalf("write bytes=%d", b)
	}
}

func TestManyUsersIsolated(t *testing.T) {
	h := New()
	for u := 0; u < 50; u++ {
		for i := 0; i < u+1; i++ {
			h.Append(Event{Time: at(i), User: fmt.Sprintf("u%02d", u), Op: "write", OK: true})
		}
	}
	for u := 0; u < 50; u++ {
		if n := h.Count(fmt.Sprintf("u%02d", u), "write", at(100), time.Hour); n != u+1 {
			t.Fatalf("user %d count=%d", u, n)
		}
	}
}

// appendRun appends n events to a log already holding prefill of them and
// returns how long the n took.
func appendRun(prefill, n int) time.Duration {
	h := New()
	ev := Event{Time: t0, User: "u", Op: "read", OK: true}
	for i := 0; i < prefill; i++ {
		h.Append(ev)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		ev.Time = ev.Time.Add(time.Microsecond)
		h.Append(ev)
	}
	return time.Since(start)
}

// TestAppendPastCapStaysCheap guards the per-user cap against costing a
// copy of the whole log per event: an append to a log past the default cap
// of 65536 must stay within 2× of one to a log below it.
// Each side is the best of three runs, so a scheduling hiccup fails nothing.
func TestAppendPastCapStaysCheap(t *testing.T) {
	const n = 50000
	best := func(prefill int) time.Duration {
		d := appendRun(prefill, n)
		for i := 0; i < 2; i++ {
			d = min(d, appendRun(prefill, n))
		}
		return d
	}
	below, past := best(0), best(70000)
	if past > 2*below {
		t.Fatalf("%d appends past the cap took %v, below it %v: more than 2×", n, past, below)
	}
}

func BenchmarkAppendBelowCap(b *testing.B) { benchAppend(b, 0) }
func BenchmarkAppendPastCap(b *testing.B)  { benchAppend(b, 70000) }

func benchAppend(b *testing.B, prefill int) {
	b.ReportMetric(float64(appendRun(prefill, b.N))/float64(b.N), "append-ns")
}
