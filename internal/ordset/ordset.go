// Package ordset is the always-sorted key index behind every paged
// store inventory (the chunk stores' List, the metadata store's
// ListNodes): a two-level chunked sorted slice — bounded key blocks
// under a sorted block directory. It exists so paging is O(limit +
// log n) instead of a full rescan-and-sort of the key set, the
// difference between a sweep that is linear in the store size and one
// that is quadratic.
package ordset

import (
	"slices"
	"sort"
)

// Key is a comparable key with a total order: Compare returns a
// negative number, zero or a positive number as the receiver sorts
// before, equal to or after its argument.
type Key[K any] interface {
	comparable
	Compare(K) int
}

// blockCap bounds one key block. Inserts and removals memmove at most
// one block, whatever the set size; blocks split in half when they
// overflow.
const blockCap = 256

// Set is an ordered set of keys. Blocks are non-empty, sorted
// internally, and cover disjoint ascending key ranges, so a key's block
// and its position inside it are both found by binary search. The zero
// value is an empty set. Not safe for concurrent use: callers guard it
// with the lock that guards their key set.
type Set[K Key[K]] struct {
	blocks [][]K
	count  int
}

func compare[K Key[K]](a, b K) int { return a.Compare(b) }

// blockFor returns the index of the first block whose last key is ≥ k —
// the only block that may contain k — or len(blocks) when k is greater
// than every stored key.
func (s *Set[K]) blockFor(k K) int {
	return sort.Search(len(s.blocks), func(i int) bool {
		blk := s.blocks[i]
		return blk[len(blk)-1].Compare(k) >= 0
	})
}

// Insert adds k; inserting a present key is a no-op.
func (s *Set[K]) Insert(k K) {
	if len(s.blocks) == 0 {
		blk := make([]K, 1, blockCap/2)
		blk[0] = k
		s.blocks = append(s.blocks, blk)
		s.count = 1
		return
	}
	bi := s.blockFor(k)
	if bi == len(s.blocks) {
		bi-- // greater than every key: extend the last block
	}
	blk := s.blocks[bi]
	pos, found := slices.BinarySearchFunc(blk, k, compare[K])
	if found {
		return
	}
	blk = slices.Insert(blk, pos, k)
	s.count++
	if len(blk) > blockCap {
		mid := len(blk) / 2
		right := append(make([]K, 0, blockCap/2+1), blk[mid:]...)
		s.blocks[bi] = blk[:mid:mid]
		s.blocks = slices.Insert(s.blocks, bi+1, right)
		return
	}
	s.blocks[bi] = blk
}

// Remove drops k; removing an absent key is a no-op.
func (s *Set[K]) Remove(k K) {
	bi := s.blockFor(k)
	if bi == len(s.blocks) {
		return
	}
	blk := s.blocks[bi]
	pos, found := slices.BinarySearchFunc(blk, k, compare[K])
	if !found {
		return
	}
	blk = slices.Delete(blk, pos, pos+1)
	if len(blk) == 0 {
		s.blocks = slices.Delete(s.blocks, bi, bi+1)
	} else {
		s.blocks[bi] = blk
	}
	s.count--
}

// Len returns the number of keys.
func (s *Set[K]) Len() int { return s.count }

// Seek returns the keys strictly greater than after, in ascending
// order, as the remainder of the block they start in (cur, possibly
// empty) plus the blocks that follow (rest), at O(log n). Both alias
// the set: they are valid only until its next Insert or Remove.
func (s *Set[K]) Seek(after K) (cur []K, rest [][]K) {
	bi := s.blockFor(after)
	if bi == len(s.blocks) {
		return nil, nil
	}
	blk := s.blocks[bi]
	pos, found := slices.BinarySearchFunc(blk, after, compare[K])
	if found {
		pos++
	}
	return blk[pos:], s.blocks[bi+1:]
}
