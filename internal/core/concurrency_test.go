package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"blobseer/internal/client"
)

// TestParallelClientsQuorumFailover drives Write, Append and Read from
// many clients at once against replicated providers with the parallel
// data path fully enabled: per-chunk replica fan-out, a write quorum
// below the replication degree, serial read failover, and one provider
// failing mid-run. Run with -race.
func TestParallelClientsQuorumFailover(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(Options{
		Providers: 6, Replicas: 3,
		Monitoring: true, AgentBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		users     = 8
		rounds    = 12
		chunkSize = int64(1 << 10)
	)

	// A shared blob everyone appends full chunk slots to; slot contents
	// interleave by publication order but each slot stays intact.
	sharedCl := c.ClientWith("shared", client.WithWriteQuorum(2))
	sharedInfo, err := sharedCl.Create(ctx, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	shared := sharedInfo.ID

	var wg sync.WaitGroup
	errCh := make(chan error, users+1)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			cl := c.ClientWith(fmt.Sprintf("user%d", u), client.WithWriteQuorum(2))
			info, err := cl.Create(ctx, chunkSize)
			if err != nil {
				errCh <- err
				return
			}
			marker := bytes.Repeat([]byte{byte('A' + u)}, int(chunkSize))
			model := make([]byte, 0, rounds*int(chunkSize))
			for i := 0; i < rounds; i++ {
				switch i % 3 {
				case 0: // chunk-unaligned append
					part := marker[:len(marker)/2+i]
					if _, err := cl.Append(ctx, info.ID, part); err != nil {
						errCh <- fmt.Errorf("user%d append %d: %w", u, i, err)
						return
					}
					model = append(model, part...)
				case 1: // unaligned overwrite inside the blob
					off := int64(len(model) / 3)
					data := bytes.Repeat([]byte{byte('a' + u)}, int(chunkSize)+7)
					if _, err := cl.Write(ctx, info.ID, off, data); err != nil {
						errCh <- fmt.Errorf("user%d write %d: %w", u, i, err)
						return
					}
					for int64(len(model)) < off+int64(len(data)) {
						model = append(model, 0)
					}
					copy(model[off:], data)
				case 2: // verify the whole blob against the model
					got, err := cl.Read(ctx, info.ID, 0, 0, int64(len(model)))
					if err != nil {
						errCh <- fmt.Errorf("user%d read %d: %w", u, i, err)
						return
					}
					if !bytes.Equal(got, model) {
						errCh <- fmt.Errorf("user%d read %d diverged from model", u, i)
						return
					}
				}
				if _, err := cl.Append(ctx, shared, marker); err != nil {
					errCh <- fmt.Errorf("user%d shared append %d: %w", u, i, err)
					return
				}
			}
			got, err := cl.Read(ctx, info.ID, 0, 0, int64(len(model)))
			if err != nil {
				errCh <- fmt.Errorf("user%d final read: %w", u, err)
			} else if !bytes.Equal(got, model) {
				errCh <- fmt.Errorf("user%d final read diverged from model", u)
			}
		}(u)
	}

	// One provider dies mid-run: the write quorum of 2 and read failover
	// must absorb it without a single failed operation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if p, ok := c.Provider("provider002"); ok {
			p.Stop()
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The shared blob holds one full slot per append, in some
	// publication order; every slot must be a single user's marker.
	size, err := sharedCl.Size(shared, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(users*rounds) * chunkSize; size != want {
		t.Fatalf("shared size=%d want %d", size, want)
	}
	data, err := sharedCl.Read(ctx, shared, 0, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	for slot := int64(0); slot < size/chunkSize; slot++ {
		s := data[slot*chunkSize : (slot+1)*chunkSize]
		ch := s[0]
		if ch < 'A' || ch >= 'A'+users {
			t.Fatalf("slot %d has foreign byte %q", slot, ch)
		}
		for _, b := range s {
			if b != ch {
				t.Fatalf("slot %d torn: mixed %q and %q", slot, ch, b)
			}
		}
	}
}
