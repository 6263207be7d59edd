package chunk

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Lent views: read-only slices of memory a store owns (diskstore's segment
// mappings), handed out instead of a pool buffer, and only to a read that
// asks for one with Borrow: every other read copies, as a store without
// views does. provider.Store's GetAppend states their rules. A page of one can fail to read (an I/O
// error, a truncated file): a user-space read meets that as SIGBUS, so it
// runs under Guard, and a kernel read (a write(2) from a view) gets EFAULT.
// Any slice of a view is one, an empty one too: a zero-capacity slice keeps
// its pointer.

// region is one lent memory range and the release of one pin on it.
type region struct {
	lo, hi  uintptr
	release func()
}

var (
	lendMu sync.Mutex               // serialises Lend
	lent   atomic.Pointer[[]region] // sorted by lo; replaced whole, never mutated
)

func init() { lent.Store(new([]region)) }

// Lend registers mem as lent memory: PutBuf of a slice that points into it
// calls release instead of filing the slice. Each view of mem holds the one
// pin release gives back. A nil release withdraws mem, which must come
// before mem is unmapped: its addresses may come back as pool buffers.
func Lend(mem []byte, release func()) {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(mem)))
	lendMu.Lock()
	defer lendMu.Unlock()
	next := slices.DeleteFunc(slices.Clone(*lent.Load()), func(r region) bool { return r.lo == lo })
	if release != nil {
		next = append(next, region{lo, lo + uintptr(len(mem)), release})
		sort.Slice(next, func(i, j int) bool { return next[i].lo < next[j].lo })
	}
	lent.Store(&next)
}

// lentTo returns the release of the lent region b points into, or nil.
// PutBuf asks it of every buffer: no lock, no allocation, a binary search.
func lentTo(b []byte) func() {
	rs, at := *lent.Load(), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	if i := sort.Search(len(rs), func(i int) bool { return rs[i].lo > at }); i > 0 && at < rs[i-1].hi {
		return rs[i-1].release
	}
	return nil
}

// Lent reports whether b is a lent view.
func Lent(b []byte) bool { return lentTo(b) != nil }

var loanMark byte // what Borrow's slice points at; never written (no capacity)

// Borrow is the dst a GetAppend caller passes to accept a lent view: it
// promises to donate the result on every path and to read it only under
// Guard. It has no capacity, so a store that does not lend, or a record it
// cannot lend, answers with a pool buffer as for a nil dst.
func Borrow() []byte { return unsafe.Slice(&loanMark, 0) }

// Borrows reports whether dst is Borrow's marker.
func Borrows(dst []byte) bool { return unsafe.SliceData(dst) == &loanMark }

// Guard runs f, which reads a lent view, and returns a memory fault in it
// as an error instead of letting it kill the process.
func Guard(f func() error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			err = fmt.Errorf("chunk: reading a lent view: %v", r)
		}
	}()
	return f()
}

// LoanKey is the context key of a fetch that takes lent views: its caller
// donates the reply on every path and reads it only under Guard, so the
// provider reads the store with Borrow. The rpc server's handler context
// answers it, without the allocation per call a context.WithValue would
// cost.
type LoanKey struct{}

// Loaned reports whether ctx takes lent views.
func Loaned(ctx context.Context) bool {
	v, _ := ctx.Value(LoanKey{}).(bool)
	return v
}
