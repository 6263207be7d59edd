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
// GC instead of donating it is always safe.
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
		return (*v.(*[]byte))[:0]
	}
	return make([]byte, 0, 1<<k)
}

// PutBuf donates a dead buffer to the pool. It files the buffer under the
// largest class its capacity covers, so a buffer is never handed out for a
// request it cannot hold; buffers outside the class range are dropped.
func PutBuf(b []byte) {
	c := cap(b)
	if c < 1<<minClassBits || c > MaxPooled {
		return
	}
	k := bits.Len(uint(c)) - 1 // largest k with 2^k ≤ cap
	b = b[:0]
	classes[k-minClassBits].Put(&b)
}
