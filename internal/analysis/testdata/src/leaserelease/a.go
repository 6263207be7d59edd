// The leaserelease fixture: a writer lease obtained from
// OpenLease/OpenWriterLease must reach Release() on every return path,
// unless its ownership demonstrably moves elsewhere.
package leaserelease

import "errors"

var errStale = errors.New("stale")

// Lease mirrors the client.Lease surface.
type Lease struct{}

func (l *Lease) ID() string { return "" }
func (l *Lease) Renew()     {}
func (l *Lease) Release()   {}

type manager struct{}

func (m *manager) OpenLease(blob, base uint64) (*Lease, error) { return &Lease{}, nil }

func OpenWriterLease(blob, base uint64) (*Lease, error) { return &Lease{}, nil }

func sink(l *Lease) {}

// Leak releases on the happy path only.
func Leak(m *manager, n int) error {
	l, err := m.OpenLease(1, 2)
	if err != nil {
		return err
	}
	if n > 10 {
		return errStale // want `writer lease l leaks on this return path`
	}
	l.Release()
	return nil
}

// Deferred is the canonical correct shape: the err != nil arm holds no
// lease, the defer covers everything after.
func Deferred(m *manager, n int) error {
	l, err := m.OpenLease(1, 2)
	if err != nil {
		return err
	}
	defer l.Release()
	if n > 10 {
		return errStale
	}
	l.Renew()
	return nil
}

// EarlyAndDefer releases on the error path and defers for the rest.
func EarlyAndDefer(n int) error {
	l, err := OpenWriterLease(1, 2)
	if err != nil {
		return err
	}
	if n > 10 {
		l.Release()
		return errStale
	}
	defer l.Release()
	return nil
}

// BorrowsDoNotRelease: calling methods on the lease is not a release —
// the obligation survives Renew and ID.
func BorrowsDoNotRelease(m *manager) string {
	l, err := m.OpenLease(1, 2)
	if err != nil {
		return ""
	}
	l.Renew()
	return l.ID() // want `writer lease l leaks on this return path`
}

// Transfer returns the lease to the caller — the analyzer goes silent,
// the new owner releases.
func Transfer(m *manager) (*Lease, error) {
	l, err := m.OpenLease(1, 2)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// FieldStore hands the lease to a struct — the blob-writer shape; its
// Close carries the release.
type holder struct{ lease *Lease }

func FieldStore(m *manager, h *holder) error {
	l, err := m.OpenLease(1, 2)
	if err != nil {
		return err
	}
	h.lease = l
	return nil
}

// Handoff passes the lease to another function — ownership moves.
func Handoff(m *manager) {
	l, err := m.OpenLease(1, 2)
	if err != nil {
		return
	}
	sink(l)
}

// OneArmOnly releases in one branch arm: the other arm and the
// fallthrough still owe a release.
func OneArmOnly(m *manager, n int) error {
	l, err := m.OpenLease(1, 2)
	if err != nil {
		return err
	}
	if n > 10 {
		l.Release()
		return errStale
	}
	return nil // want `writer lease l leaks on this return path`
}

// FallsOffEnd never returns explicitly and never releases.
func FallsOffEnd(m *manager) {
	l, err := m.OpenLease(1, 2)
	if err != nil {
		return
	}
	l.Renew()
} // want `writer lease l may leak when FallsOffEnd returns`

// Allowed documents an audited exception.
func Allowed(m *manager) error {
	l, err := m.OpenLease(1, 2)
	if err != nil {
		return err
	}
	l.Renew()
	return nil //leaserelease:allow the TTL reaps this probe lease by design
}

// BothArmsRelease ends in an if/else whose arms both release and
// return: no path falls off the end.
func BothArmsRelease(m *manager, n int) error {
	l, err := m.OpenLease(1, 2)
	if err != nil {
		return err
	}
	if n > 10 {
		l.Release()
		return errStale
	} else {
		l.Release()
		return nil
	}
}

// PerArm releases once on every path of a loop body: in an arm that
// jumps on, and on the way round.
func PerArm(m *manager, ns []int) {
	for _, n := range ns {
		l, err := m.OpenLease(1, uint64(n))
		if err != nil {
			continue
		}
		if n > 10 {
			l.Release()
			continue
		}
		l.Renew()
		l.Release()
	}
}

// batch is a run of leases released together; OpenLease on a pool
// hands one out, and re-slicing it keeps the obligation.
type batch []*Lease

func (b batch) Release() {}

type pool struct{}

func (p *pool) OpenLease(n int) batch { return make(batch, n) }

// ResliceLeak trims the batch it acquired and forgets to release it on
// the early return.
func ResliceLeak(p *pool, n int) error {
	b := p.OpenLease(8)[:n]
	if n > 4 {
		return errStale // want `writer lease b leaks on this return path`
	}
	b.Release()
	return nil
}
