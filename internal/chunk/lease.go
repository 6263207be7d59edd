package chunk

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
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

// NewLeaseID mints a chunk-lease ID, for a writer or a replica repair.
// Randomness makes IDs unique across processes, so the writers of two
// gateways never share a lease at a provider both use.
func NewLeaseID() (string, error) {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("chunk: mint lease id: %w", err)
	}
	return "wl-" + hex.EncodeToString(b[:]), nil
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

type rangeKey struct{}

// WithRange returns a copy of ctx under which a chunk fetch returns only
// bytes [off, off+n) of its chunk, clamped to the chunk (n ≤ 0: the whole
// chunk). A reader fetches just the part of a chunk its window covers.
// The range rides in the context for the reason the lease does: every
// Conn in the tree shares one Fetch signature.
func WithRange(ctx context.Context, off, n int64) context.Context {
	return context.WithValue(ctx, rangeKey{}, [2]int64{max(off, 0), n})
}

// RangeFrom returns the range ctx carries; n = 0 means the whole chunk.
func RangeFrom(ctx context.Context) (off, n int64) {
	if r, _ := ctx.Value(rangeKey{}).([2]int64); r[1] > 0 {
		return r[0], r[1]
	}
	return 0, 0
}
