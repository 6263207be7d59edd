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
		{"breaker-open", &BreakerOpenError{Provider: "p1"}, Permanent},
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

// transitions renders one transitions_total family's counts, by
// destination, in the order given.
func transitions(t *testing.T, reg *metrics.Registry, family string, to ...string) string {
	t.Helper()
	var out []string
	for _, v := range to {
		out = append(out, fmt.Sprintf("%s=%v", v, findSample(t, reg, family, "to", v)))
	}
	return strings.Join(out, " ")
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	reg := metrics.NewRegistry()
	p := NewPlane(Config{
		BreakerThreshold: 3, BreakerCooldown: time.Second,
		Clock: func() time.Time { return now },
	}, reg)
	trans := func(want string) {
		t.Helper()
		got := transitions(t, reg, "blobseer_breaker_transitions_total", "closed", "half_open", "open")
		if got != want {
			t.Fatalf("breaker transitions = %s, want %s", got, want)
		}
	}

	werr := &transientErr{t: true}
	for i := 0; i < 2; i++ {
		if !p.allow("p1") {
			t.Fatal("closed breaker rejected a call")
		}
		p.observe("p1", werr)
	}
	if p.State("p1") != Closed {
		t.Fatalf("state = %v before threshold, want Closed", p.State("p1"))
	}
	// A permanent (application) error proves contact: streak resets.
	p.observe("p1", provider.ErrNotFound)
	if p.State("p1") != Closed {
		t.Fatalf("state = %v after app error, want Closed", p.State("p1"))
	}
	trans("closed=0 half_open=0 open=0")
	for i := 0; i < 3; i++ {
		p.observe("p1", werr)
	}
	if p.State("p1") != Open {
		t.Fatalf("state = %v after threshold, want Open", p.State("p1"))
	}
	trans("closed=0 half_open=0 open=1")
	if p.allow("p1") {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	if p.FastFail("p1") == nil {
		t.Fatal("open breaker not rejecting")
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(time.Second)
	if !p.allow("p1") {
		t.Fatal("half-open breaker rejected the probe")
	}
	if p.State("p1") != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen", p.State("p1"))
	}
	if p.allow("p1") {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	trans("closed=0 half_open=1 open=1")
	// Failed probe: straight back to Open.
	p.observe("p1", werr)
	if p.State("p1") != Open {
		t.Fatalf("state = %v after failed probe, want Open", p.State("p1"))
	}
	trans("closed=0 half_open=1 open=2")

	// Next probe succeeds: closed again.
	now = now.Add(time.Second)
	if !p.allow("p1") {
		t.Fatal("second probe rejected")
	}
	trans("closed=0 half_open=2 open=2")
	p.observe("p1", nil)
	if p.State("p1") != Closed {
		t.Fatalf("state = %v after successful probe, want Closed", p.State("p1"))
	}
	if p.FastFail("p1") != nil {
		t.Fatal("closed breaker rejecting")
	}
	trans("closed=1 half_open=2 open=2")
}

func TestDetectorVerdicts(t *testing.T) {
	reg := metrics.NewRegistry()
	p := NewPlane(Config{BreakerThreshold: 100, SuspectAfter: 2, DeadAfter: 4}, reg)
	trans := func(want string) {
		t.Helper()
		got := transitions(t, reg, "blobseer_health_transitions_total", "alive", "suspect", "dead")
		if got != want {
			t.Fatalf("health transitions = %s, want %s", got, want)
		}
	}
	werr := &transientErr{t: true}

	p.observe("p1", werr)
	if p.Health("p1") != Alive {
		t.Fatalf("verdict = %v after 1 failure, want Alive", p.Health("p1"))
	}
	p.observe("p1", werr)
	if p.Health("p1") != Suspect {
		t.Fatalf("verdict = %v after 2 failures, want Suspect", p.Health("p1"))
	}
	trans("alive=0 suspect=1 dead=0")
	// Application errors are contact: verdict recovers.
	p.observe("p1", provider.ErrNotFound)
	if p.Health("p1") != Alive {
		t.Fatalf("verdict = %v after app error, want Alive", p.Health("p1"))
	}
	trans("alive=1 suspect=1 dead=0")
	for i := 0; i < 4; i++ {
		p.observe("p1", werr)
	}
	if p.Health("p1") != Dead {
		t.Fatalf("verdict = %v after 4 failures, want Dead", p.Health("p1"))
	}
	trans("alive=1 suspect=2 dead=1")
	p.observe("p1", nil)
	if p.Health("p1") != Alive {
		t.Fatalf("verdict = %v after success, want Alive", p.Health("p1"))
	}
	trans("alive=2 suspect=2 dead=1")
	if p.Health("p2") != Alive {
		t.Fatalf("untracked provider = %v, want Alive", p.Health("p2"))
	}
}

// TestOneStreakDrivesCircuitAndVerdict runs one provider's failure
// streak through both machines with the chaos suite's thresholds.
func TestOneStreakDrivesCircuitAndVerdict(t *testing.T) {
	now := time.Unix(0, 0)
	reg := metrics.NewRegistry()
	p := NewPlane(Config{
		Retry:            RetryPolicy{MaxAttempts: 1},
		BreakerThreshold: 3, BreakerCooldown: time.Second,
		SuspectAfter: 2, DeadAfter: 6,
		Clock: func() time.Time { return now },
	}, reg)
	inner := &failNConn{n: 6}
	conn := p.Wrap("p1", inner)
	store := func() error { return conn.Store(context.Background(), "u", chunk.ID{}, []byte("x")) }
	check := func(calls int, st State, h Health, healthy bool) {
		t.Helper()
		if inner.calls != calls || p.State("p1") != st || p.Health("p1") != h || p.Healthy("p1") != healthy {
			t.Fatalf("calls=%d state=%v health=%v healthy=%v; want %d %v %v %v",
				inner.calls, p.State("p1"), p.Health("p1"), p.Healthy("p1"), calls, st, h, healthy)
		}
	}

	for i := 0; i < 2; i++ {
		if store() == nil {
			t.Fatal("Store succeeded against failing conn")
		}
	}
	check(2, Closed, Suspect, true) // suspect, still admitted
	if store() == nil {
		t.Fatal("third Store succeeded")
	}
	check(3, Open, Suspect, false)
	if err := store(); !IsBreakerOpen(err) {
		t.Fatalf("Store before cooldown = %v, want BreakerOpenError", err)
	}
	check(3, Open, Suspect, false)
	for calls := 4; calls <= 6; calls++ {
		now = now.Add(time.Second)
		if store() == nil {
			t.Fatalf("probe %d succeeded", calls)
		}
		h := Suspect
		if calls == 6 {
			h = Dead
		}
		check(calls, Open, h, false)
	}
	if dead := p.DrainDead(); len(dead) != 1 || dead[0] != "p1" {
		t.Fatalf("DrainDead = %v, want [p1]", dead)
	}
	now = now.Add(time.Second)
	if err := store(); err != nil {
		t.Fatalf("recovering probe = %v", err)
	}
	check(7, Closed, Alive, true)
	if got, want := transitions(t, reg, "blobseer_health_transitions_total", "alive", "suspect", "dead"),
		"alive=1 suspect=1 dead=1"; got != want {
		t.Fatalf("health transitions = %s, want %s", got, want)
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
		Retry:            RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond},
		BreakerThreshold: 100,
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

func TestGuardedConnBreakerFastFail(t *testing.T) {
	p := NewPlane(Config{
		Retry:            RetryPolicy{MaxAttempts: 1},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	}, nil)
	inner := &failNConn{n: 1000}
	conn := p.Wrap("p1", inner)

	id := chunk.Sum([]byte("x"))
	for i := 0; i < 2; i++ {
		if err := conn.Store(context.Background(), "u", id, []byte("x")); err == nil {
			t.Fatal("Store succeeded against failing conn")
		}
	}
	if p.State("p1") != Open {
		t.Fatalf("breaker = %v after threshold, want Open", p.State("p1"))
	}
	before := inner.calls
	err := conn.Store(context.Background(), "u", id, []byte("x"))
	if !IsBreakerOpen(err) {
		t.Fatalf("err = %v, want BreakerOpenError", err)
	}
	if inner.calls != before {
		t.Fatal("open breaker still reached the provider")
	}
	if p.Healthy("p1") {
		t.Fatal("open-circuited provider reported Healthy")
	}
	if p.FastFail("p1") == nil {
		t.Fatal("FastFail = nil for open circuit")
	}
	if p.FastFail("p2") != nil {
		t.Fatal("FastFail != nil for untracked provider")
	}
}

func TestGuardedConnCallerCancelNotCounted(t *testing.T) {
	p := NewPlane(Config{
		Retry:            RetryPolicy{MaxAttempts: 1},
		BreakerThreshold: 1, // a single counted failure would open it
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
	if p.State("p1") != Closed {
		t.Fatalf("caller cancellation tripped the breaker: %v", p.State("p1"))
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
		CallTimeout:      30 * time.Millisecond,
		Retry:            RetryPolicy{MaxAttempts: 1},
		BreakerThreshold: 100,
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
	p := NewPlane(Config{SuspectAfter: 1, DeadAfter: 2}, nil)
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
	if v := findSample(t, reg, "blobseer_breaker_state", "provider", "p1"); v != 0 {
		t.Fatalf("breaker_state{p1} = %v, want 0 (closed)", v)
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
