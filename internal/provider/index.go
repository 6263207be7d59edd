// The always-sorted shadow index behind MemStore.List: a two-level
// chunked sorted slice (bounded key blocks under a sorted block
// directory) per lock stripe. It exists so inventory paging is
// O(limit + log n) instead of a full rescan-and-sort of the stripe set —
// the difference between a sweep that is linear in the store size and
// one that is quadratic.
package provider

import (
	"bytes"
	"slices"
	"sort"

	"blobseer/internal/chunk"
)

// indexBlockCap bounds one key block. Inserts and removals memmove at
// most one block (indexBlockCap × 32 bytes), whatever the index size;
// blocks split in half when they overflow.
const indexBlockCap = 256

// idIndex is an ordered set of chunk IDs. Blocks are non-empty, sorted
// internally, and cover disjoint ascending key ranges, so a key's block
// and its position inside it are both found by binary search. The zero
// value is an empty index. Not safe for concurrent use: callers hold
// the owning stripe's mutex.
type idIndex struct {
	blocks [][]chunk.ID
	count  int
}

// blockFor returns the index of the first block whose last key is ≥ id —
// the only block that may contain id — or len(blocks) when id is greater
// than every stored key.
func (x *idIndex) blockFor(id chunk.ID) int {
	return sort.Search(len(x.blocks), func(i int) bool {
		blk := x.blocks[i]
		return bytes.Compare(blk[len(blk)-1][:], id[:]) >= 0
	})
}

// insert adds id to the index; inserting a present key is a no-op.
func (x *idIndex) insert(id chunk.ID) {
	if len(x.blocks) == 0 {
		blk := make([]chunk.ID, 1, indexBlockCap/2)
		blk[0] = id
		x.blocks = append(x.blocks, blk)
		x.count = 1
		return
	}
	bi := x.blockFor(id)
	if bi == len(x.blocks) {
		bi-- // greater than every key: extend the last block
	}
	blk := x.blocks[bi]
	pos := sort.Search(len(blk), func(i int) bool {
		return bytes.Compare(blk[i][:], id[:]) >= 0
	})
	if pos < len(blk) && blk[pos] == id {
		return
	}
	blk = slices.Insert(blk, pos, id)
	x.count++
	if len(blk) > indexBlockCap {
		mid := len(blk) / 2
		right := append(make([]chunk.ID, 0, indexBlockCap/2+1), blk[mid:]...)
		x.blocks[bi] = blk[:mid:mid]
		x.blocks = slices.Insert(x.blocks, bi+1, right)
		return
	}
	x.blocks[bi] = blk
}

// remove drops id from the index; removing an absent key is a no-op.
func (x *idIndex) remove(id chunk.ID) {
	bi := x.blockFor(id)
	if bi == len(x.blocks) {
		return
	}
	blk := x.blocks[bi]
	pos := sort.Search(len(blk), func(i int) bool {
		return bytes.Compare(blk[i][:], id[:]) >= 0
	})
	if pos == len(blk) || blk[pos] != id {
		return
	}
	blk = slices.Delete(blk, pos, pos+1)
	if len(blk) == 0 {
		x.blocks = slices.Delete(x.blocks, bi, bi+1)
	} else {
		x.blocks[bi] = blk
	}
	x.count--
}

// len returns the number of keys in the index.
func (x *idIndex) len() int { return x.count }

// page returns, in ascending order, up to limit keys strictly greater
// than after, across the whole index. One call costs O(limit + log n):
// the start position is found by binary search and the walk then runs
// along consecutive blocks.
func (x *idIndex) page(after chunk.ID, limit int) []chunk.ID {
	if limit <= 0 || len(x.blocks) == 0 {
		return nil
	}
	bi := sort.Search(len(x.blocks), func(i int) bool {
		blk := x.blocks[i]
		return bytes.Compare(blk[len(blk)-1][:], after[:]) > 0
	})
	if bi == len(x.blocks) {
		return nil
	}
	blk := x.blocks[bi]
	pos := sort.Search(len(blk), func(i int) bool {
		return bytes.Compare(blk[i][:], after[:]) > 0
	})
	out := make([]chunk.ID, 0, min(limit, 1024))
	for ; bi < len(x.blocks); bi++ {
		blk := x.blocks[bi]
		for ; pos < len(blk); pos++ {
			out = append(out, blk[pos])
			if len(out) == limit {
				return out
			}
		}
		pos = 0
	}
	return out
}

// IDIndex is the exported face of the always-sorted chunk-ID index, for
// stores outside this package that must honour Store.List's
// ordered-iteration contract (the disk store backs its List with one).
// The zero value is an empty index. Not safe for concurrent use:
// callers guard it with the lock that guards their key set.
type IDIndex struct {
	x idIndex
}

// Insert adds id; inserting a present key is a no-op.
func (ix *IDIndex) Insert(id chunk.ID) { ix.x.insert(id) }

// Remove drops id; removing an absent key is a no-op.
func (ix *IDIndex) Remove(id chunk.ID) { ix.x.remove(id) }

// Len returns the number of keys.
func (ix *IDIndex) Len() int { return ix.x.len() }

// Page returns up to limit keys strictly greater than after, ascending,
// at O(limit + log n).
func (ix *IDIndex) Page(after chunk.ID, limit int) []chunk.ID {
	return ix.x.page(after, limit)
}

// pageByte returns, in ascending order, up to limit keys whose first
// byte equals first and which are strictly greater than after. Callers
// iterate first-byte segments in order (each segment lives wholly inside
// one stripe), so a store-wide page touches only the stripes that
// actually contribute keys.
func (x *idIndex) pageByte(first byte, after chunk.ID, limit int) []chunk.ID {
	if limit <= 0 || len(x.blocks) == 0 {
		return nil
	}
	// Lower bound: keys must be > after and begin with first. When the
	// segment starts past after's first byte, the prefix bound subsumes
	// the strict one.
	lb := after
	strict := true
	if first != after[0] {
		lb = chunk.ID{}
		lb[0] = first
		strict = false
	}
	inBound := func(k chunk.ID) bool {
		c := bytes.Compare(k[:], lb[:])
		if strict {
			return c > 0
		}
		return c >= 0
	}
	bi := sort.Search(len(x.blocks), func(i int) bool {
		blk := x.blocks[i]
		return inBound(blk[len(blk)-1])
	})
	if bi == len(x.blocks) {
		return nil
	}
	blk := x.blocks[bi]
	pos := sort.Search(len(blk), func(i int) bool { return inBound(blk[i]) })
	var out []chunk.ID
	for ; bi < len(x.blocks); bi++ {
		blk := x.blocks[bi]
		for ; pos < len(blk); pos++ {
			k := blk[pos]
			if k[0] != first {
				return out // past the segment: later keys only grow
			}
			out = append(out, k)
			if len(out) == limit {
				return out
			}
		}
		pos = 0
	}
	return out
}
