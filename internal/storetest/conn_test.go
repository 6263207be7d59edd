package storetest_test

import (
	"context"
	"testing"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/faultdom"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/storetest"
)

// TestEveryConnCarriesLeases: a Conn must not hide leasing. Through
// every client.Conn in the tree — the provider itself, the rpc plane,
// the fault guard, the fault-injection wrappers — a LeaseChunks shows up
// in the provider's lease table and a ReleaseLease removes it. A wrapper
// that swallowed either would leave the writers behind it with the grace
// window as their only protection.
func TestEveryConnCarriesLeases(t *testing.T) {
	ctx := context.Background()
	conns := []struct {
		name string
		over func(t *testing.T, p *provider.Provider) client.Conn
	}{
		{"provider", func(_ *testing.T, p *provider.Provider) client.Conn { return p }},
		{"rpc", func(t *testing.T, p *provider.Provider) client.Conn {
			srv, err := rpc.Serve(p, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			conn, err := rpc.DialContext(ctx, srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			return conn
		}},
		{"faultdom", func(_ *testing.T, p *provider.Provider) client.Conn {
			return faultdom.NewPlane(faultdom.Config{}, nil).Wrap(p.ID(), p)
		}},
		{"flaky", func(_ *testing.T, p *provider.Provider) client.Conn {
			return &storetest.FlakyConn{Inner: p, Inj: storetest.NewInjector(1, 0)}
		}},
		{"slow", func(_ *testing.T, p *provider.Provider) client.Conn {
			return &storetest.SlowConn{Inner: p, R: storetest.NewRand(1), MaxDelay: time.Millisecond}
		}},
		{"partitioned", func(_ *testing.T, p *provider.Provider) client.Conn {
			return &storetest.PartitionedConn{Inner: p}
		}},
	}
	for _, c := range conns {
		t.Run(c.name, func(t *testing.T) {
			p := provider.New("p00", "z0", 0)
			conn := c.over(t, p)
			id := chunk.Sum([]byte(c.name))
			if err := conn.LeaseChunks(ctx, "w1", time.Minute, []chunk.ID{id}); err != nil {
				t.Fatal(err)
			}
			leases, err := p.Leases(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(leases) != 1 || leases[0].ID != "w1" || len(leases[0].Chunks) != 1 || leases[0].Chunks[0] != id {
				t.Fatalf("lease table after LeaseChunks through the conn = %+v, want w1 holding the chunk", leases)
			}
			if err := conn.ReleaseLease(ctx, "w1"); err != nil {
				t.Fatal(err)
			}
			if leases, _ = p.Leases(ctx); len(leases) != 0 {
				t.Fatalf("lease table after ReleaseLease through the conn = %+v, want empty", leases)
			}
		})
	}
}
