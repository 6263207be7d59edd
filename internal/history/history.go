// Package history implements the paper's User Activity History: the
// container of monitored user events that the security framework's
// detection engine scans for malicious behaviour patterns. It is fed by
// the introspection stack (it subscribes to the monitoring mesh) and
// offers the windowed aggregations the policy language needs.
package history

import (
	"sort"
	"sync"
	"time"

	"blobseer/internal/instrument"
)

// Event is one user-attributed action.
type Event struct {
	Time  time.Time
	User  string
	Op    string // canonical op name ("write", "read", …)
	Blob  uint64
	Bytes int64
	OK    bool
}

// History stores per-user event logs with bounded retention.
type History struct {
	mu        sync.Mutex
	maxAge    time.Duration // prune events older than this (0 = keep all)
	maxPerUsr int           // cap per-user log length
	users     map[string][]Event
	total     int64
}

// Option configures a History.
type Option func(*History)

// WithMaxAge bounds retention by age.
func WithMaxAge(d time.Duration) Option {
	return func(h *History) { h.maxAge = d }
}

// WithMaxPerUser bounds retention per user (default 65536).
func WithMaxPerUser(n int) Option {
	return func(h *History) {
		if n > 0 {
			h.maxPerUsr = n
		}
	}
}

// New returns an empty history.
func New(opts ...Option) *History {
	h := &History{users: make(map[string][]Event), maxPerUsr: 65536}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Append records one event. Events must arrive in non-decreasing time
// order per user for the windowed scans to be exact (the monitoring layer
// delivers batches in order).
func (h *History) Append(ev Event) {
	if ev.User == "" {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Trim by reslicing, never by copying: the dropped head stays in the
	// backing array only until append next outgrows it, and that
	// reallocation moves the live tail alone — amortized O(1) per event,
	// where a copy per trim would cost the whole cap on every append past it.
	log := append(h.users[ev.User], ev)
	if h.maxAge > 0 {
		cut := ev.Time.Add(-h.maxAge)
		log = log[sort.Search(len(log), func(i int) bool { return !log[i].Time.Before(cut) }):]
	}
	if len(log) > h.maxPerUsr {
		log = log[len(log)-h.maxPerUsr:]
	}
	h.users[ev.User] = log
	h.total++
}

// Consume implements monitor.Subscriber: user-attributed monitoring
// events become history events. Only data-path operations are recorded.
func (h *History) Consume(evs []instrument.Event) {
	for _, ev := range evs {
		if ev.User == "" {
			continue
		}
		switch ev.Op {
		case instrument.OpRead, instrument.OpWrite, instrument.OpAppend, instrument.OpCreate,
			instrument.OpStore, instrument.OpFetch, instrument.OpAuthFail:
			h.Append(Event{Time: ev.Time, User: ev.User, Op: string(ev.Op), Blob: ev.Blob, Bytes: ev.Bytes, OK: ev.OK()})
		}
	}
}

// Users returns all users with recorded activity, sorted.
func (h *History) Users() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.users))
	for u := range h.users {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// ActiveUsers returns users with at least one event in [now-window, now].
func (h *History) ActiveUsers(now time.Time, window time.Duration) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	cut := now.Add(-window)
	var out []string
	for u, log := range h.users {
		if len(log) > 0 && !log[len(log)-1].Time.Before(cut) {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

// Total returns the number of events ever appended.
func (h *History) Total() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// window returns the user's events in [now-window, now]. Callers hold mu.
func (h *History) window(user string, now time.Time, w time.Duration) []Event {
	log := h.users[user]
	cut := now.Add(-w)
	i := sort.Search(len(log), func(i int) bool { return !log[i].Time.Before(cut) })
	j := sort.Search(len(log), func(i int) bool { return log[i].Time.After(now) })
	if i >= j {
		return nil
	}
	return log[i:j]
}

// Scan returns a copy of the user's events within the window, all ops.
func (h *History) Scan(user string, now time.Time, w time.Duration) []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Event(nil), h.window(user, now, w)...)
}

// Count returns the number of events of op (any op when op == "") in the
// window.
func (h *History) Count(user, op string, now time.Time, w time.Duration) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int
	for _, ev := range h.window(user, now, w) {
		if op == "" || ev.Op == op {
			n++
		}
	}
	return n
}

// Rate returns events of op per second over the window.
func (h *History) Rate(user, op string, now time.Time, w time.Duration) float64 {
	if w <= 0 {
		return 0
	}
	return float64(h.Count(user, op, now, w)) / w.Seconds()
}

// Bytes sums the byte counts of op events in the window.
func (h *History) Bytes(user, op string, now time.Time, w time.Duration) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int64
	for _, ev := range h.window(user, now, w) {
		if op == "" || ev.Op == op {
			n += ev.Bytes
		}
	}
	return n
}

// Failures counts failed events of op in the window.
func (h *History) Failures(user, op string, now time.Time, w time.Duration) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int
	for _, ev := range h.window(user, now, w) {
		if !ev.OK && (op == "" || ev.Op == op) {
			n++
		}
	}
	return n
}

// DistinctBlobs counts distinct BLOBs touched in the window (crawling /
// scraping detection). Events that name no BLOB (provider store/fetch,
// auth_fail) do not count.
func (h *History) DistinctBlobs(user string, now time.Time, w time.Duration) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := map[uint64]bool{}
	for _, ev := range h.window(user, now, w) {
		if ev.Blob != 0 {
			seen[ev.Blob] = true
		}
	}
	return len(seen)
}
