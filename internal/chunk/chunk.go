// Package chunk defines the unit of storage in BlobSeer: BLOBs are split
// into equally-sized chunks, addressed by content hash. Chunks are
// immutable; versions of a BLOB share unchanged chunks.
package chunk

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// DefaultSize is the chunk size used when a BLOB is created without an
// explicit one (64 MiB, the size used in the paper's experiments).
const DefaultSize = 64 << 20

// ID is the content address of a chunk (SHA-256 of its payload).
type ID [sha256.Size]byte

// Sum returns the ID of a payload.
func Sum(data []byte) ID { return sha256.Sum256(data) }

// String returns the hex form of the ID.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Short returns an abbreviated hex form, convenient for logs.
func (id ID) Short() string { return hex.EncodeToString(id[:6]) }

// Compare orders IDs bytewise, the order of every chunk inventory.
func (id ID) Compare(o ID) int { return bytes.Compare(id[:], o[:]) }

// IsZero reports whether the ID is the zero value.
func (id ID) IsZero() bool { return id == ID{} }

// ParseID parses a hex-encoded chunk ID.
func ParseID(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("chunk: parse id: %w", err)
	}
	if len(b) != len(id) {
		return id, fmt.Errorf("chunk: parse id: want %d bytes, got %d", len(id), len(b))
	}
	copy(id[:], b)
	return id, nil
}

// Desc describes one stored chunk from the metadata point of view: where
// its replicas live and how many of its bytes are valid.
type Desc struct {
	ID        ID
	Size      int64    // valid payload bytes (≤ chunk size of the BLOB)
	Providers []string // provider IDs holding a replica, primary first
}

// Clone returns a deep copy of the descriptor.
func (d Desc) Clone() Desc {
	out := d
	out.Providers = append([]string(nil), d.Providers...)
	return out
}

// SlotRange returns the absolute byte range [lo, hi) of chunk index idx
// for the given chunk size.
func SlotRange(idx, size int64) (lo, hi int64) {
	return idx * size, (idx + 1) * size
}

// NumChunks returns the number of chunk slots needed to cover a BLOB of
// the given byte size.
func NumChunks(blobSize, chunkSize int64) int64 {
	if blobSize <= 0 {
		return 0
	}
	return (blobSize + chunkSize - 1) / chunkSize
}
