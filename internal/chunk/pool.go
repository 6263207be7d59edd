package chunk

import (
	"math/bits"
	"sync"
)

// The process-wide chunk-buffer pool. Every hop of the chunk path — client
// writer slots and reader windows, the rpc wire, the provider stores'
// GetAppend — draws its payload buffer here and donates it back when the
// payload is dead, so a chunk lives in one recycled buffer per hop.
//
// Ownership: GetBuf hands the caller the only reference; PutBuf takes it
// back, and the caller must hold the only live reference when it donates —
// pooled buffers are re-sliced and overwritten. Dropping a buffer for the
// GC instead of donating it is safe, except for a lent view (lend.go),
// which PutBuf recognises first, however short, and releases instead of
// filing: a view never enters a size class.
//
// Buffers are kept in power-of-two size classes (a 16 KiB fetch must not
// evict, or be served by, a 1 MiB writer slot). Requests above the largest
// class are plain allocations and such buffers are not kept; sync.Pool
// bounds idle memory across GC cycles, so there is no cap to configure.
const (
	minClassBits = 9  // 512 B
	maxClassBits = 24 // 16 MiB

	// MaxPooled is the largest buffer the pool keeps.
	MaxPooled = 1 << maxClassBits
)

var classes [maxClassBits - minClassBits + 1]sync.Pool

// boxes recycles the *[]byte headers the classes hold buffers in: GetBuf
// empties the box it took a buffer from and returns it here, and PutBuf
// files a buffer in a box from here, so neither allocates once warm.
var boxes = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf returns a zero-length buffer with capacity at least n. Its
// contents are stale: callers that read bytes they did not write must
// clear them first.
func GetBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	if n > MaxPooled {
		return make([]byte, 0, n)
	}
	k := minClassBits
	if n > 1<<minClassBits {
		k = bits.Len(uint(n - 1)) // smallest k with 2^k ≥ n
	}
	if v := classes[k-minClassBits].Get(); v != nil {
		box := v.(*[]byte)
		b := (*box)[:0]
		*box = nil // the box must not keep the buffer alive
		boxes.Put(box)
		return b
	}
	return make([]byte, 0, 1<<k)
}

// PutBuf donates a dead buffer to the pool. It files the buffer under the
// largest class its capacity covers, so a buffer is never handed out for a
// request it cannot hold; buffers outside the class range are dropped.
func PutBuf(b []byte) {
	if release := lentTo(b); release != nil {
		release()
		return
	}
	c := cap(b)
	if c < 1<<minClassBits || c > MaxPooled {
		return
	}
	k := bits.Len(uint(c)) - 1 // largest k with 2^k ≤ cap
	box := boxes.Get().(*[]byte)
	*box = b[:0]
	classes[k-minClassBits].Put(box)
}
