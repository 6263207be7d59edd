package chunk

import (
	"context"
	"time"
)

// Lease names the writer lease a chunk store files its chunk under before
// the bytes land: the provider registers the chunk ID under ID for TTL
// (≤ 0 = the provider's default), ordered against in-flight purges, so a
// store can never race the sweep reclaiming an identical chunk. It rides
// in the store's context — to Provider.Store in process, in the Store
// frame over the wire — because every Conn in the tree shares one Store
// signature.
type Lease struct {
	ID  string
	TTL time.Duration
}

type leaseKey struct{}

// WithLease returns a copy of ctx under which chunk stores register their
// chunk under l.
func WithLease(ctx context.Context, l *Lease) context.Context {
	return context.WithValue(ctx, leaseKey{}, l)
}

// LeaseFrom returns the lease ctx carries, or nil. A lease without an ID
// is no lease, on either plane.
func LeaseFrom(ctx context.Context) *Lease {
	if l, _ := ctx.Value(leaseKey{}).(*Lease); l != nil && l.ID != "" {
		return l
	}
	return nil
}
