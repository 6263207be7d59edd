package chaostest

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/core"
	"blobseer/internal/faultdom"
	"blobseer/internal/metrics"
	"blobseer/internal/storetest"
)

// blobSet tracks what a scenario wrote so later phases can verify it.
type blobSet struct {
	ids      []uint64
	versions map[uint64]uint64
	payloads map[uint64][]byte
}

func newBlobSet() *blobSet {
	return &blobSet{versions: map[uint64]uint64{}, payloads: map[uint64][]byte{}}
}

func (bs *blobSet) write(t *testing.T, cl *client.Client, chunkSize int64, payload []byte) {
	ctx := context.Background()
	t.Helper()
	info, err := cl.Create(ctx, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := cl.Write(ctx, info.ID, 0, payload)
	if err != nil {
		t.Fatalf("write blob %d: %v", info.ID, err)
	}
	bs.ids = append(bs.ids, info.ID)
	bs.versions[info.ID] = ver
	bs.payloads[info.ID] = payload
}

func (bs *blobSet) verify(t *testing.T, cl *client.Client) {
	t.Helper()
	ctx := context.Background()
	for _, id := range bs.ids {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		got, err := cl.Read(rctx, id, bs.versions[id], 0, int64(len(bs.payloads[id])))
		cancel()
		if err != nil {
			t.Fatalf("read blob %d: %v", id, err)
		}
		if !bytes.Equal(got, bs.payloads[id]) {
			t.Fatalf("blob %d: read corrupt payload", id)
		}
	}
}

func mkPayload(n int, tag byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*7 + tag
	}
	return p
}

// TestPartitionDegradedOperation is the acceptance scenario from the
// paper's fault model: one replica of three partitions away mid-
// workload. Reads must keep succeeding from the survivors with p99
// bounded by the configured call deadline, writes must re-route and
// still meet the quorum, the fault plane must declare the victim
// dead and steer placement off it, and once the partition heals the
// cluster must converge to exactly zero leaked chunks and leases.
func TestPartitionDegradedOperation(t *testing.T) {
	const (
		victim    = "provider000"
		callTO    = 250 * time.Millisecond
		chunkSize = 1 << 10
	)
	// The blackhole: a conn that hangs far beyond every deadline, but
	// only while the injector is enabled — flipping it simulates the
	// partition opening and healing.
	black := storetest.NewInjector(1, 1)
	black.SetEnabled(false)
	slowR := storetest.NewRand(7)
	cache := newConnCache(func(id string, conn client.Conn) client.Conn {
		if id != victim {
			return conn
		}
		return &storetest.SlowConn{Inner: conn, R: slowR, MaxDelay: 30 * time.Second, Inj: black}
	})
	reg := metrics.NewRegistry()
	c := newCluster(t, core.Options{
		Providers: 4, Replicas: 3,
		Monitoring: false,
		Metrics:    reg,
		Fault: &faultdom.Config{
			CallTimeout: callTO,
			Retry:       faultdom.RetryPolicy{MaxAttempts: 1}, // fail over, don't retry in place
			DeadAfter:   3,
			Cooldown:    300 * time.Millisecond,
		},
		WrapConn: cache.wrap,
	})
	cl := c.ClientWith("alice", client.WithWriteQuorum(2))

	// Healthy phase: seed the cluster.
	bs := newBlobSet()
	for i := 0; i < 8; i++ {
		bs.write(t, cl, chunkSize, mkPayload(4*chunkSize, byte(i)))
	}
	bs.verify(t, cl)

	// Partition one replica of three.
	black.SetEnabled(true)

	// Degraded GETs: every single-chunk read must be served by the two
	// surviving replicas. The first few pay one call deadline probing
	// the victim; once their failures make it dead, reads order it
	// last and its calls fail fast, so p99 stays within the deadline
	// budget. Asserted, not eyeballed.
	var lat []time.Duration
	for round := 0; round < 15; round++ {
		for _, id := range bs.ids {
			for ck := int64(0); ck < 4; ck++ {
				rctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				start := time.Now()
				got, err := cl.Read(rctx, id, bs.versions[id], ck*chunkSize, chunkSize)
				lat = append(lat, time.Since(start))
				cancel()
				if err != nil {
					t.Fatalf("degraded read blob %d chunk %d: %v", id, ck, err)
				}
				want := bs.payloads[id][ck*chunkSize : (ck+1)*chunkSize]
				if !bytes.Equal(got, want) {
					t.Fatalf("degraded read blob %d chunk %d: corrupt payload", id, ck)
				}
			}
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	if limit := callTO + 150*time.Millisecond; p99 > limit {
		t.Fatalf("degraded-read p99 = %v, want <= %v (n=%d, max=%v)", p99, limit, len(lat), lat[len(lat)-1])
	}

	// Degraded PUTs: placement vetoes the unhealthy victim, so writes
	// re-route to the three survivors and meet the 2-of-3 quorum.
	for i := 0; i < 6; i++ {
		bs.write(t, cl, chunkSize, mkPayload(2*chunkSize, byte(0x40+i)))
	}

	// Active failure detection: pings drive the victim to Dead, and
	// placement stops handing it chunks entirely.
	waitFor(t, "detector to declare the victim dead", func() bool {
		c.Tick(time.Now())
		return c.Fault.Health(victim) == faultdom.Dead
	})
	place, err := c.PM.Allocate(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range place {
		for _, id := range set {
			if id == victim {
				t.Fatalf("placement %v still allocates to dead provider %s", place, victim)
			}
		}
	}
	if familyTotal(reg, "blobseer_health_state") == 0 {
		t.Error("no provider reads dead on the health gauge during the partition")
	}
	if familyTotal(reg, "blobseer_health_transitions_total") == 0 {
		t.Error("no health transitions recorded during the partition")
	}

	// Heal the partition: pings revive the victim to alive and the full
	// data set reads back.
	black.SetEnabled(false)
	waitFor(t, "victim revival after heal", func() bool {
		c.Tick(time.Now())
		return c.Fault.Healthy(victim) && c.Fault.Health(victim) == faultdom.Alive
	})
	bs.verify(t, cl)

	converge(t, c, bs.ids)
}

// TestFlakyRetriesAndMetrics: a 20% fault rate on every link is fully
// absorbed by the retry policy — the workload succeeds end to end, the
// retries are visible in blobseer_rpc_retries_total, and nothing leaks.
func TestFlakyRetriesAndMetrics(t *testing.T) {
	const chunkSize = 1 << 10
	inj := storetest.NewInjector(42, 0.2)
	cache := newConnCache(func(id string, conn client.Conn) client.Conn {
		return &storetest.FlakyConn{Inner: conn, Inj: inj}
	})
	reg := metrics.NewRegistry()
	c := newCluster(t, core.Options{
		Providers: 3, Replicas: 2,
		Monitoring: false,
		Metrics:    reg,
		Fault: &faultdom.Config{
			CallTimeout: time.Second,
			Retry:       faultdom.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
			DeadAfter:   1000, // flaky, not down: never declare a provider dead
		},
		WrapConn: cache.wrap,
	})
	cl := c.ClientWith("bob", client.WithWriteQuorum(1))

	bs := newBlobSet()
	for i := 0; i < 10; i++ {
		bs.write(t, cl, chunkSize, mkPayload(2*chunkSize, byte(i)))
	}
	bs.verify(t, cl)

	if familyTotal(reg, "blobseer_rpc_retries_total") == 0 {
		t.Fatal("no retries recorded despite a 20% injected fault rate")
	}

	inj.SetEnabled(false)
	converge(t, c, bs.ids)
}

// TestInProcCallDeadline: the satellite deadline check for the in-proc
// plane — a conn hanging far past the budget is abandoned after one
// CallTimeout, and the error classifies transient so callers fail over.
func TestInProcCallDeadline(t *testing.T) {
	cache := newConnCache(func(id string, conn client.Conn) client.Conn {
		return &storetest.SlowConn{Inner: conn, R: storetest.NewRand(3), MaxDelay: 30 * time.Second}
	})
	c := newCluster(t, core.Options{
		Providers: 1, Replicas: 1, Monitoring: false,
		Fault: &faultdom.Config{
			CallTimeout: 100 * time.Millisecond,
			Retry:       faultdom.RetryPolicy{MaxAttempts: 1},
		},
		WrapConn: cache.wrap,
	})
	ctx := context.Background()
	conn, err := c.Lookup(ctx, "provider000")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		call func() error
	}{
		{"store", func() error { return conn.Store(ctx, "alice", chunk.ID{}, []byte("x")) }},
		{"fetch", func() error { _, err := conn.Fetch(ctx, "alice", chunk.ID{}); return err }},
	} {
		start := time.Now()
		err := op.call()
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("%s against a hung provider succeeded", op.name)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s error = %v, want deadline exceeded", op.name, err)
		}
		if got := faultdom.Classify(err); got != faultdom.Transient {
			t.Fatalf("%s deadline error classified %v, want transient", op.name, got)
		}
		if elapsed > 600*time.Millisecond {
			t.Fatalf("%s took %v, want bounded by the 100ms call deadline", op.name, elapsed)
		}
	}
}
