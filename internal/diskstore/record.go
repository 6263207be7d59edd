// The on-disk record format of the log-structured chunk store. Segment
// files are a pure append-only sequence of checksummed records; every
// record is self-contained and states the chunk's *absolute* reference
// count and epoch, never a delta. Absolute state is what makes
// compaction safe: a segment can be dropped once every chunk whose most
// recent authoritative record lives in it has been re-recorded in a
// newer segment — no earlier delta chain has to be preserved.
//
// Layout (little-endian):
//
//	[0:4]    magic "bsLg"
//	[4:8]    crc32 (IEEE) over bytes [8 : 57+payload)
//	[8]      record type
//	[9:13]   refs  (int32: absolute reference count after this record)
//	[13:21]  epoch (uint64: put-epoch tag, or the new epoch for recEpoch)
//	[21:53]  chunk ID (zero for recEpoch)
//	[53:57]  payload length n (uint32; non-zero only for recPut)
//	[57:57+n] payload
//
// A torn write can only damage the tail of the youngest segment (older
// segments were sealed by a clean roll); recovery verifies records
// sequentially and truncates the file at the first short or
// checksum-failing record.
package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"blobseer/internal/chunk"
)

// Record types.
const (
	// recPut carries a payload: a fresh chunk, or a compaction rewrite
	// relocating a live payload (refs then carries the current count).
	recPut = byte(1)
	// recState re-states a chunk's absolute refs+epoch without payload:
	// re-puts (refs+1), deletes (refs-1), purges and delete-to-zero
	// (refs=0, a tombstone), and compaction re-statements.
	recState = byte(2)
	// recEpoch persists an AdvanceEpoch: the epoch field holds the new
	// current epoch.
	recEpoch = byte(3)
)

const (
	headerSize = 57
	magicOff   = 0
	crcOff     = 4
	typeOff    = 8
	refsOff    = 9
	epochOff   = 13
	idOff      = 21
	lenOff     = 53
)

var magic = [4]byte{'b', 's', 'L', 'g'}

// ErrCorrupt reports a damaged record outside the recoverable tail.
var ErrCorrupt = errors.New("diskstore: corrupt segment record")

// record is one decoded log record.
type record struct {
	typ     byte
	refs    int32
	epoch   uint64
	id      chunk.ID
	payload []byte // recPut only; aliases the decode buffer
}

// encodeHeader writes the record's header, checksum included, into
// h[:headerSize]. The checksum folds over the header fields and then the
// payload where it lies, so a record is never assembled in one buffer
// just to be summed: the append path writes h and then r.payload.
func (r *record) encodeHeader(h []byte) {
	h = h[:headerSize]
	copy(h[magicOff:], magic[:])
	h[typeOff] = r.typ
	binary.LittleEndian.PutUint32(h[refsOff:], uint32(r.refs))
	binary.LittleEndian.PutUint64(h[epochOff:], r.epoch)
	copy(h[idOff:], r.id[:])
	binary.LittleEndian.PutUint32(h[lenOff:], uint32(len(r.payload)))
	crc := crc32.Update(crc32.ChecksumIEEE(h[typeOff:]), crc32.IEEETable, r.payload)
	binary.LittleEndian.PutUint32(h[crcOff:], crc)
}

// restamp gives an encoded record — buf holds header and payload
// exactly — a new refs and epoch, and the checksum that goes with them.
func restamp(buf []byte, refs int32, epoch uint64) {
	binary.LittleEndian.PutUint32(buf[refsOff:], uint32(refs))
	binary.LittleEndian.PutUint64(buf[epochOff:], epoch)
	binary.LittleEndian.PutUint32(buf[crcOff:], crc32.ChecksumIEEE(buf[typeOff:]))
}

// wireSize returns the encoded size of a record with an n-byte payload.
func wireSize(n int) int64 { return int64(headerSize + n) }

// decodeHeader parses and verifies the fixed header fields (not the
// checksum, which needs the payload too). A short or non-magic header
// means the record is torn.
func decodeHeader(h []byte) (r record, payloadLen int, err error) {
	if len(h) < headerSize {
		return r, 0, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(h))
	}
	if [4]byte(h[magicOff:crcOff]) != magic {
		return r, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r.typ = h[typeOff]
	if r.typ != recPut && r.typ != recState && r.typ != recEpoch {
		return r, 0, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, r.typ)
	}
	r.refs = int32(binary.LittleEndian.Uint32(h[refsOff:]))
	r.epoch = binary.LittleEndian.Uint64(h[epochOff:])
	copy(r.id[:], h[idOff:lenOff])
	payloadLen = int(binary.LittleEndian.Uint32(h[lenOff:]))
	if r.typ != recPut && payloadLen != 0 {
		return r, 0, fmt.Errorf("%w: payload on a %d record", ErrCorrupt, r.typ)
	}
	return r, payloadLen, nil
}

// verify checks the whole record's checksum over buf, which must hold
// header+payload exactly.
func verify(buf []byte) bool {
	want := binary.LittleEndian.Uint32(buf[crcOff:])
	return crc32.ChecksumIEEE(buf[typeOff:]) == want
}
