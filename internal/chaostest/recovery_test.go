package chaostest

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/core"
	"blobseer/internal/faultdom"
	"blobseer/internal/provider"
	"blobseer/internal/s3gate"
	"blobseer/internal/storetest"
)

// TestCrashRestartRecovery: a provider crashes mid-workload and later
// restarts empty. While it is down, reads fail over to the surviving
// replica and writes re-route; the detector declares it dead. After the
// restart, pings revive it, replication maintenance restores every
// chunk's degree, and the cluster converges clean.
func TestCrashRestartRecovery(t *testing.T) {
	const (
		victim    = "provider000"
		chunkSize = 1 << 10
	)
	var crash *storetest.CrashStore
	c := newCluster(t, core.Options{
		Providers: 3, Replicas: 2,
		Monitoring: false,
		Fault: &faultdom.Config{
			CallTimeout: 500 * time.Millisecond,
			Retry:       faultdom.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
			DeadAfter:   3,
			Cooldown:    200 * time.Millisecond,
		},
		ProviderStore: func(id string) provider.Store {
			if id != victim {
				return provider.NewMemStore(0)
			}
			crash = storetest.NewCrashStore(provider.NewMemStore(0), func() provider.Store {
				return provider.NewMemStore(0)
			})
			return crash
		},
	})
	cl := c.ClientWith("carol", client.WithWriteQuorum(1))

	bs := newBlobSet()
	for i := 0; i < 6; i++ {
		bs.write(t, cl, chunkSize, mkPayload(2*chunkSize, byte(i)))
	}
	bs.verify(t, cl)

	crash.Crash()

	// Degraded: reads fail over to the surviving replica, writes keep
	// landing on the healthy majority.
	bs.verify(t, cl)
	for i := 0; i < 4; i++ {
		bs.write(t, cl, chunkSize, mkPayload(2*chunkSize, byte(0x60+i)))
	}
	waitFor(t, "detector to declare the crashed provider dead", func() bool {
		c.Tick(time.Now())
		return c.Fault.Health(victim) == faultdom.Dead
	})

	// Restart empty (the crash lost the disk) and wait for revival.
	crash.Restart(true)
	waitFor(t, "crashed provider revival", func() bool {
		c.Tick(time.Now())
		return c.Fault.Healthy(victim) && c.Fault.Health(victim) == faultdom.Alive
	})

	// Self-optimization heals the replication degree the wipe cost us.
	waitFor(t, "replication heal after restart", func() bool {
		rep, err := c.Heal(context.Background(), time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return rep.UnderReplicated == 0 && rep.Repaired == 0 && rep.Failed == 0
	})
	bs.verify(t, cl)

	converge(t, c, bs.ids)
}

// TestQuorumFailureSurfacesRetryable503: with every provider behind a
// partition the write quorum cannot be met, and the S3 gateway maps the
// typed transient error to a retryable 503 SlowDown — not a generic
// 500. Once the partition heals (and dead providers' cooldowns elapse)
// the same PUT succeeds.
func TestQuorumFailureSurfacesRetryable503(t *testing.T) {
	inj := storetest.NewInjector(9, 1) // p=1: a full partition, shared cut switch
	inj.SetEnabled(false)
	cache := newConnCache(func(id string, conn client.Conn) client.Conn {
		return &storetest.FlakyConn{Inner: conn, Inj: inj}
	})
	c := newCluster(t, core.Options{
		Providers: 3, Replicas: 2,
		Monitoring: false,
		Fault: &faultdom.Config{
			CallTimeout: 200 * time.Millisecond,
			Retry:       faultdom.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
			DeadAfter:   3,
			Cooldown:    50 * time.Millisecond,
		},
		WrapConn: cache.wrap,
	})
	srv := httptest.NewServer(s3gate.New(c))
	defer srv.Close()

	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := do(http.MethodPut, "/chaos", ""); code != http.StatusOK {
		t.Fatalf("create bucket: %d %s", code, body)
	}

	// Partition every provider: the PUT cannot reach its quorum and
	// must surface as a retryable 503 SlowDown.
	inj.SetEnabled(true)
	code, body := do(http.MethodPut, "/chaos/key", "payload-under-partition")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("partitioned PUT: got %d %s, want 503", code, body)
	}
	if !strings.Contains(body, "SlowDown") {
		t.Fatalf("partitioned PUT error %q lacks the retryable SlowDown code", body)
	}

	// Heal: after the cooldowns, probes revive the providers, the
	// identical PUT goes through and the object reads back.
	inj.SetEnabled(false)
	waitFor(t, "PUT recovery after partition heal", func() bool {
		code, _ := do(http.MethodPut, "/chaos/key", "payload-after-heal")
		return code == http.StatusOK
	})
	if code, body := do(http.MethodGet, "/chaos/key", ""); code != http.StatusOK || body != "payload-after-heal" {
		t.Fatalf("GET after heal: %d %q", code, body)
	}
}
