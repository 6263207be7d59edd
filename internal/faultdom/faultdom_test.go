package faultdom

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/metrics"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
)

type transientErr struct{ t bool }

func (e *transientErr) Error() string   { return fmt.Sprintf("transient=%v", e.t) }
func (e *transientErr) Transient() bool { return e.t }

type fakeNetErr struct{}

func (fakeNetErr) Error() string   { return "fake net error" }
func (fakeNetErr) Timeout() bool   { return true }
func (fakeNetErr) Temporary() bool { return true }

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Permanent},
		{"not-found", provider.ErrNotFound, Permanent},
		{"wrapped-not-found", fmt.Errorf("fetch: %w", provider.ErrNotFound), Permanent},
		{"deadline", context.DeadlineExceeded, Transient},
		{"canceled", context.Canceled, Permanent},
		{"net-error", fakeNetErr{}, Transient},
		{"rpc-shutdown", rpc.ErrShutdown, Transient},
		{"rpc-conn-died", fmt.Errorf("store p1: %w: %v", rpc.ErrShutdown, io.EOF), Transient},
		{"eof", io.EOF, Transient},
		{"unexpected-eof", io.ErrUnexpectedEOF, Transient},
		{"conn-refused", syscall.ECONNREFUSED, Transient},
		{"conn-reset", fmt.Errorf("write: %w", syscall.ECONNRESET), Transient},
		{"net-closed", net.ErrClosed, Transient},
		{"transienter-true", &transientErr{t: true}, Transient},
		{"transienter-false", &transientErr{t: false}, Permanent},
		{"unknown", errors.New("mystery"), Permanent},
		{"dead-rejection", &DeadError{Provider: "p1"}, Permanent},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

func TestRetryPolicyStopsOnPermanent(t *testing.T) {
	calls := 0
	err := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}.Do(context.Background(),
		func(context.Context) error { calls++; return provider.ErrNotFound })
	if !errors.Is(err, provider.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if calls != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
}

func TestRetryPolicyRetriesTransient(t *testing.T) {
	calls := 0
	notified := 0
	err := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond}.DoNotify(context.Background(),
		func(attempt int, err error) {
			notified++
			if attempt != notified {
				t.Errorf("notify attempt = %d, want %d", attempt, notified)
			}
		},
		func(context.Context) error {
			calls++
			if calls < 3 {
				return &transientErr{t: true}
			}
			return nil
		})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 || notified != 2 {
		t.Fatalf("calls = %d, notified = %d; want 3, 2", calls, notified)
	}
}

func TestRetryPolicyExhaustsBudget(t *testing.T) {
	calls := 0
	werr := &transientErr{t: true}
	err := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}.Do(context.Background(),
		func(context.Context) error { calls++; return werr })
	if !errors.Is(err, werr) {
		t.Fatalf("err = %v, want last transient error", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetryPolicyHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	werr := &transientErr{t: true}
	err := RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour}.Do(ctx,
		func(context.Context) error {
			calls++
			cancel() // cancel while "in flight": backoff must abort
			return werr
		})
	if !errors.Is(err, werr) {
		t.Fatalf("err = %v, want the op error, not ctx.Err", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestRetryPolicyBackoffGrowsAndCaps(t *testing.T) {
	// A jitter sample of 1 takes nothing away: the exact curve.
	p := RetryPolicy{
		BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond,
		Multiplier: 2, Rand: func() float64 { return 1 },
	}.withDefaults()
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.delay(i + 1); got != w {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// With full jitter the delay stays within [(1-j)·d, d].
	p.Jitter = 0.5
	p.Rand = func() float64 { return 0.5 }
	if got := p.delay(1); got != 7500*time.Microsecond {
		t.Errorf("jittered delay = %v, want 7.5ms", got)
	}
}

func TestRetryPolicyJittersByDefault(t *testing.T) {
	// The zero Jitter means the default ±50 %: the smallest sample
	// halves the first delay.
	p := RetryPolicy{Rand: func() float64 { return 0 }}.withDefaults()
	if got := p.delay(1); got != 5*time.Millisecond {
		t.Fatalf("delay(1) = %v, want 5ms", got)
	}
}

// transitions renders the health transitions family's counts, by
// destination.
func transitions(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var out []string
	for _, v := range []string{"alive", "dead"} {
		out = append(out, fmt.Sprintf("%s=%v", v, findSample(t, reg, "blobseer_health_transitions_total", "to", v)))
	}
	return strings.Join(out, " ")
}

// checkHealth fails unless p1's verdict, Healthy, gauge and the
// transition counts all agree with h and trans.
func checkHealth(t *testing.T, p *Plane, reg *metrics.Registry, h Health, trans string) {
	t.Helper()
	gauge := findSample(t, reg, "blobseer_health_state", "provider", "p1")
	if p.Health("p1") != h || p.Healthy("p1") != (h == Alive) || gauge != float64(h) {
		t.Fatalf("verdict=%v healthy=%v gauge=%v; want %v", p.Health("p1"), p.Healthy("p1"), gauge, h)
	}
	if got := transitions(t, reg); got != trans {
		t.Fatalf("health transitions = %s, want %s", got, trans)
	}
}

// TestDetectorVerdicts: only DeadAfter consecutive transient failures
// make a provider Dead; an application error in the streak resets it,
// and an untracked provider reads Alive.
func TestDetectorVerdicts(t *testing.T) {
	reg := metrics.NewRegistry()
	p := NewPlane(Config{DeadAfter: 3}, reg)
	werr := &transientErr{t: true}

	p.Track("p1")
	p.observe("p1", werr, false)
	p.observe("p1", werr, false)
	checkHealth(t, p, reg, Alive, "alive=0 dead=0")
	// A permanent (application) error proves contact: streak resets.
	p.observe("p1", provider.ErrNotFound, false)
	p.observe("p1", werr, false)
	p.observe("p1", werr, false)
	checkHealth(t, p, reg, Alive, "alive=0 dead=0")
	p.observe("p1", werr, false)
	checkHealth(t, p, reg, Dead, "alive=0 dead=1")
	if p.Health("p2") != Alive || !p.Healthy("p2") || p.FastFail("p2") != nil {
		t.Fatal("untracked provider not Alive")
	}
}

// TestOneStreakDrivesCircuitAndVerdict: the streak that makes a
// provider Dead also makes FastFail reject it and hands it to the heal
// exactly once; one success undoes both.
func TestOneStreakDrivesCircuitAndVerdict(t *testing.T) {
	reg := metrics.NewRegistry()
	p := NewPlane(Config{DeadAfter: 3}, reg)
	werr := &transientErr{t: true}

	p.Track("p1")
	for i := 0; i < 3; i++ {
		p.observe("p1", werr, false)
	}
	checkHealth(t, p, reg, Dead, "alive=0 dead=1")
	if p.FastFail("p1") == nil {
		t.Fatal("dead provider not rejecting")
	}
	p.observe("p1", werr, false) // already dead: no second heal
	if dead := p.DrainDead(); len(dead) != 1 || dead[0] != "p1" {
		t.Fatalf("DrainDead = %v, want [p1]", dead)
	}
	p.observe("p1", nil, false)
	checkHealth(t, p, reg, Alive, "alive=1 dead=1")
	if p.FastFail("p1") != nil {
		t.Fatal("revived provider rejecting")
	}
	if len(p.DrainDead()) != 0 {
		t.Fatal("second drain not empty")
	}
}

// TestBreakerLifecycle: an elapsed cooldown alone does not make a dead
// provider healthy; it admits exactly one probe, a failed probe
// restarts the cooldown, and a successful one revives it.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	p := NewPlane(Config{
		Retry:     RetryPolicy{MaxAttempts: 1},
		DeadAfter: 2, Cooldown: time.Second,
		Clock: func() time.Time { return now },
	}, nil)
	inner := &failNConn{n: 2}
	conn := p.Wrap("p1", inner)
	store := func() error { return conn.Store(context.Background(), "u", chunk.ID{}, []byte("x")) }
	check := func(calls int, healthy bool) {
		t.Helper()
		if inner.calls != calls || p.Healthy("p1") != healthy {
			t.Fatalf("calls=%d healthy=%v; want %d %v", inner.calls, p.Healthy("p1"), calls, healthy)
		}
	}

	store()
	store()
	check(2, false)
	now = now.Add(time.Hour)
	check(2, false) // no contact, no revival
	if ok, probe := p.allow("p1"); !ok || !probe {
		t.Fatalf("allow past cooldown = %v, %v; want the probe", ok, probe)
	}
	if ok, _ := p.allow("p1"); ok {
		t.Fatal("a second call admitted while the probe is in flight")
	}
	if err := p.FastFail("p1"); !IsDead(err) {
		t.Fatalf("FastFail during probe = %v, want DeadError", err)
	}

	// A probe that fails half a cooldown in restarts the cooldown from
	// its failure, not from its admission.
	now = now.Add(time.Second / 2)
	p.observe("p1", &transientErr{t: true}, true)
	now = now.Add(time.Second / 2)
	if err := store(); !IsDead(err) {
		t.Fatalf("Store within the restarted cooldown = %v, want DeadError", err)
	}
	check(2, false)

	// A successful probe revives it.
	now = now.Add(time.Second / 2)
	if err := store(); err != nil {
		t.Fatalf("recovering probe = %v", err)
	}
	check(3, true)
	if p.Health("p1") != Alive || p.FastFail("p1") != nil {
		t.Fatalf("verdict = %v after a successful probe, want Alive", p.Health("p1"))
	}
}

// TestDeadProbeCancelReleasesSlot: a probe whose caller gives up
// mid-call frees the probe slot, so the next cooldown admits another.
func TestDeadProbeCancelReleasesSlot(t *testing.T) {
	now := time.Unix(0, 0)
	p := NewPlane(Config{
		Retry:     RetryPolicy{MaxAttempts: 1},
		DeadAfter: 1, Cooldown: time.Hour,
		Clock: func() time.Time { return now },
	}, nil)
	p.observe("p1", &transientErr{t: true}, false)
	now = now.Add(time.Hour)

	block := make(chan struct{})
	defer close(block)
	conn := p.Wrap("p1", blockingConn{ch: block})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := conn.Fetch(ctx, "u", chunk.ID{}); err == nil || IsDead(err) {
		t.Fatalf("probe = %v, want the caller's deadline", err)
	}
	if p.FastFail("p1") == nil {
		t.Fatal("a second probe admitted within the cooldown")
	}
	now = now.Add(time.Hour)
	if err := p.FastFail("p1"); err != nil {
		t.Fatalf("FastFail a cooldown after the cancelled probe = %v, want nil", err)
	}
	if ok, probe := p.allow("p1"); !ok || !probe {
		t.Fatalf("allow a cooldown after the cancelled probe = %v, %v; want the probe", ok, probe)
	}
}

// noLease completes client.Conn for fakes with no provider behind them.
type noLease struct{}

func (noLease) LeaseChunks(context.Context, string, time.Duration, []chunk.ID) error { return nil }
func (noLease) ReleaseLease(context.Context, string) error                           { return nil }

// failNConn fails the first n calls with a transient error, then
// succeeds, counting every inner call.
type failNConn struct {
	noLease
	mu    sync.Mutex
	n     int
	calls int
	data  map[chunk.ID][]byte
}

func (c *failNConn) tryFail() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.n > 0 {
		c.n--
		return &transientErr{t: true}
	}
	return nil
}

func (c *failNConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	if err := c.tryFail(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.data == nil {
		c.data = make(map[chunk.ID][]byte)
	}
	c.data[id] = append([]byte(nil), data...)
	return nil
}

func (c *failNConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	if err := c.tryFail(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.data[id]
	if !ok {
		return nil, provider.ErrNotFound
	}
	return d, nil
}

func TestGuardedConnRetriesAndCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	p := NewPlane(Config{
		Retry:     RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond},
		DeadAfter: 100,
	}, reg)
	inner := &failNConn{n: 2}
	conn := p.Wrap("p1", inner)

	id := chunk.Sum([]byte("payload"))
	if err := conn.Store(context.Background(), "u", id, []byte("payload")); err != nil {
		t.Fatalf("Store = %v", err)
	}
	if inner.calls != 3 {
		t.Fatalf("inner calls = %d, want 3 (2 failures + success)", inner.calls)
	}
	got, err := conn.Fetch(context.Background(), "u", id)
	if err != nil || string(got) != "payload" {
		t.Fatalf("Fetch = %q, %v", got, err)
	}
	snap := findSample(t, reg, "blobseer_rpc_retries_total", "op", "store")
	if snap != 2 {
		t.Fatalf("retries{op=store} = %v, want 2", snap)
	}
}

// TestGuardedConnBreakerFastFail: with the default config, data-path
// failures alone make the provider Dead, hand it to the heal once, and
// turn later calls into rejections that never reach the provider.
func TestGuardedConnBreakerFastFail(t *testing.T) {
	p := NewPlane(Config{Retry: RetryPolicy{MaxAttempts: 1}}, nil)
	inner := &failNConn{n: 1000}
	conn := p.Wrap("p1", inner)

	id := chunk.Sum([]byte("x"))
	var err error
	for i := 0; i < 8; i++ {
		err = conn.Store(context.Background(), "u", id, []byte("x"))
	}
	if !IsDead(err) {
		t.Fatalf("err = %v, want DeadError", err)
	}
	if inner.calls != 5 || p.Health("p1") != Dead || p.Healthy("p1") {
		t.Fatalf("calls=%d verdict=%v healthy=%v; want 5 Dead false", inner.calls, p.Health("p1"), p.Healthy("p1"))
	}
	if p.FastFail("p1") == nil {
		t.Fatal("FastFail = nil for a dead provider")
	}
	if p.FastFail("p2") != nil {
		t.Fatal("FastFail != nil for untracked provider")
	}
	if dead := p.DrainDead(); len(dead) != 1 || dead[0] != "p1" {
		t.Fatalf("DrainDead = %v, want [p1]", dead)
	}
	if len(p.DrainDead()) != 0 {
		t.Fatal("second drain not empty")
	}
}

func TestGuardedConnCallerCancelNotCounted(t *testing.T) {
	p := NewPlane(Config{
		Retry:     RetryPolicy{MaxAttempts: 1},
		DeadAfter: 1, // a single counted failure would kill it
	}, nil)
	block := make(chan struct{})
	conn := p.Wrap("p1", blockingConn{ch: block})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := conn.Fetch(ctx, "u", chunk.ID{})
	close(block)
	if err == nil {
		t.Fatal("Fetch succeeded against blocked conn")
	}
	if p.Health("p1") != Alive {
		t.Fatalf("caller cancellation killed the provider: %v", p.Health("p1"))
	}
}

type blockingConn struct {
	noLease
	ch chan struct{}
}

func (c blockingConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.ch:
		return nil
	}
}

func (c blockingConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.ch:
		return nil, provider.ErrNotFound
	}
}

func TestGuardedConnAttemptDeadline(t *testing.T) {
	p := NewPlane(Config{
		CallTimeout: 30 * time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 1},
		DeadAfter:   100,
	}, nil)
	conn := p.Wrap("p1", blockingConn{ch: make(chan struct{})})

	start := time.Now()
	err := conn.Store(context.Background(), "u", chunk.ID{}, []byte("x"))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("attempt took %v, want ~CallTimeout", elapsed)
	}
	// The timeout counted against the provider.
	if p.Health("p1") == Dead {
		t.Fatal("one timeout declared the provider Dead")
	}
}

func TestPlanePing(t *testing.T) {
	p := NewPlane(Config{DeadAfter: 2}, nil)
	// Healthy provider: answers ErrNotFound for the probe chunk.
	ok := &failNConn{}
	if err := p.Ping(context.Background(), "p1", ok); err != nil {
		t.Fatalf("Ping healthy = %v", err)
	}
	if p.Health("p1") != Alive {
		t.Fatalf("verdict = %v, want Alive", p.Health("p1"))
	}
	// Failing provider: probes drive the verdict to Dead and the list
	// of pending heals.
	bad := &failNConn{n: 1000}
	for i := 0; i < 2; i++ {
		if err := p.Ping(context.Background(), "p2", bad); err == nil {
			t.Fatal("Ping failing provider = nil")
		}
	}
	if p.Health("p2") != Dead {
		t.Fatalf("verdict = %v, want Dead", p.Health("p2"))
	}
	dead := p.DrainDead()
	if len(dead) != 1 || dead[0] != "p2" {
		t.Fatalf("DrainDead = %v, want [p2]", dead)
	}
	if len(p.DrainDead()) != 0 {
		t.Fatal("second drain not empty")
	}
}

func TestPlaneTrackResolvesGauge(t *testing.T) {
	reg := metrics.NewRegistry()
	p := NewPlane(Config{}, reg)
	p.Track("p1")
	if v := findSample(t, reg, "blobseer_health_state", "provider", "p1"); v != 0 {
		t.Fatalf("health_state{p1} = %v, want 0 (alive)", v)
	}
	p.Forget("p1")
}

// findSample reads one labeled sample out of the registry snapshot.
func findSample(t *testing.T, reg *metrics.Registry, family, label, value string) float64 {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Samples {
			for i, ln := range f.LabelNames {
				if ln == label && s.LabelValues[i] == value {
					return s.Value
				}
			}
		}
	}
	t.Fatalf("no sample %s{%s=%q} in snapshot", family, label, value)
	return 0
}
