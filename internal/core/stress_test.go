package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"blobseer/internal/policy"
)

// TestClusterConcurrentStress drives clients, the control plane, the
// replication scanner and provider churn concurrently — the full system
// under simultaneous load from every subsystem. Run with -race.
func TestClusterConcurrentStress(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(Options{
		Providers: 8, Replicas: 2, BaseDegree: 2,
		Monitoring: true, AgentBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 6
	const opsPer = 25

	var wg sync.WaitGroup
	errCh := make(chan error, clients+3)
	var blobMu sync.Mutex
	blobOf := map[int]uint64{}

	// Writers/readers.
	for u := 0; u < clients; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			cl := c.Client(fmt.Sprintf("user%d", u))
			info, err := cl.Create(ctx, 1<<10)
			if err != nil {
				errCh <- err
				return
			}
			blobMu.Lock()
			blobOf[u] = info.ID
			blobMu.Unlock()
			payload := bytes.Repeat([]byte{byte('a' + u)}, 4<<10)
			for i := 0; i < opsPer; i++ {
				if _, err := cl.Write(ctx, info.ID, 0, payload); err != nil {
					errCh <- fmt.Errorf("user%d write %d: %w", u, i, err)
					return
				}
				got, err := cl.Read(ctx, info.ID, 0, 0, int64(len(payload)))
				if err != nil || !bytes.Equal(got, payload) {
					errCh <- fmt.Errorf("user%d read %d: %w", u, i, err)
					return
				}
			}
		}(u)
	}

	// Control plane ticking concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.Tick(time.Now())
		}
	}()

	// Replication maintenance concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := c.Heal(ctx, time.Now()); err != nil {
				// Transient under-replication during churn is expected to
				// repair on a later pass; only hard failures matter.
				continue
			}
		}
	}()

	// Provider churn: add a few, remove one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := c.AddProvider(); err != nil {
				errCh <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Final heal converges and everything stays readable.
	if _, err := c.Heal(ctx, time.Now()); err != nil {
		t.Fatalf("final heal: %v", err)
	}
	for u := 0; u < clients; u++ {
		cl := c.Client(fmt.Sprintf("user%d", u))
		blob := blobOf[u]
		payload := bytes.Repeat([]byte{byte('a' + u)}, 4<<10)
		got, err := cl.Read(ctx, blob, 0, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("user%d final read: %v", u, err)
		}
	}
}

// TestClusterBlockedUserCannotBypassViaNewClientHandle checks that
// enforcement binds to the identity, not the client object.
func TestClusterBlockedUserCannotBypassViaNewClientHandle(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	c, err := NewCluster(Options{
		Providers: 2, Monitoring: false,
		Clock: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Enf.Quarantine("mallory", policy.Violation{Time: now, User: "mallory"})

	fresh := c.Client("mallory") // brand-new handle, same identity
	if _, err := fresh.Create(context.Background(), 64); !errors.Is(err, policy.ErrBlocked) {
		t.Fatalf("fresh handle bypassed the block: %v", err)
	}
}
